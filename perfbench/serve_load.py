"""The serve_mixed workload: ``plr serve`` in its own process, one client.

The server runs with its default configuration and backend single on a
Unix socket.  One connection from this process drives two phases:

* (a) an open loop of seeded Poisson arrivals at a fixed rate; each
  request is timed from the moment it was due, so a stall also charges
  the requests queued behind it, and the generator's own lateness is
  reported;
* (b) a closed loop that keeps a fixed window of requests outstanding,
  in short rounds with the drift reference timed between them.

Request frames are encoded before timing; replies are kept as raw
lines and decoded and checked after each phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import table1_signatures
from repro.serve.protocol import encode_reply, parse_frame

from checks import check_output
from measure import proc_peak_rss_mb, ref_kernel_ms

TABLE1 = table1_signatures()
READ_LIMIT = 8 << 20
REPLY_TIMEOUT_S = 20.0


class ServeMixed:
    name = "serve_mixed"
    SIGNATURES = ("prefix_sum", "order2_prefix_sum", "low_pass_1", "high_pass_2")
    SIZES = (64, 4096, 32768)
    SIZE_SHARES = (0.85, 0.13, 0.02)
    POOL = 768
    RATE_RPS = 120.0
    WINDOW = 8
    ROUND_REQUESTS = 200
    OPEN_SHARE = 0.45
    SPAWNS = 7

    def __init__(self, seed: int, root: Path, run_dir: Path, env: dict) -> None:
        self.root = root
        self.run_dir = run_dir
        self.env = env
        rng = np.random.default_rng(seed)
        self.pool = []
        for n, name in self._stratified(rng, self.POOL):
            signature = TABLE1[str(name)]
            dtype = "int32" if signature.is_integer else "float32"
            if dtype == "int32":
                values = rng.integers(-100, 100, int(n), dtype=np.int32)
            else:
                values = rng.standard_normal(int(n), dtype=np.float32)
            body = json.dumps(
                {"signature": str(signature), "values": values.tolist(), "dtype": dtype},
                separators=(",", ":"),
            ).encode()
            self.pool.append((signature, values, body))
        self.rng = rng
        # The closed loop replays one seeded request list per round, with
        # the size classes in their exact shares.
        by_class: dict[tuple, list] = {}
        for i, (signature, values, _) in enumerate(self.pool):
            by_class.setdefault((values.size, str(signature)), []).append(i)
        self.round_list = [
            int(rng.choice(by_class[(n, str(TABLE1[name]))]))
            for n, name in self._stratified(rng, self.ROUND_REQUESTS)
        ]
        self.sizes = {
            "request_sizes": list(self.SIZES),
            "size_shares": list(self.SIZE_SHARES),
            "distinct_requests": self.POOL,
            "open_loop_rps": self.RATE_RPS,
            "closed_loop_window": self.WINDOW,
        }
        self.process = None
        self.socket_path = None

    def _stratified(self, rng, count: int) -> list[tuple[int, str]]:
        """``count`` (size, signature name) pairs, shuffled.

        Sizes come in the exact SIZE_SHARES proportions and signatures in
        turn within each size class, so every seed offers the same mix;
        the cost of the rare large requests (float replies encode far
        slower than int ones) then does not depend on the seed.
        """
        counts = [round(count * share) for share in self.SIZE_SHARES[1:]]
        counts.insert(0, count - sum(counts))
        pairs = []
        for size, c in zip(self.SIZES, counts):
            names = rng.permutation(self.SIGNATURES)
            pairs += [(int(size), str(names[i % len(names)])) for i in range(c)]
        return [pairs[i] for i in rng.permutation(len(pairs))]

    # -- server lifecycle ----------------------------------------------
    def spawn(self, index: int) -> float:
        """Start a server; returns seconds from spawn to the first ping reply."""
        sock = self.run_dir / f"s{index}.sock"
        self.socket_path = os.path.relpath(sock, self.root)
        self.log_path = self.run_dir / f"server{index}.log"
        log = open(self.log_path, "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--unix", self.socket_path,
             "--backend", "single"],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        log.close()
        asyncio.run(self._await_ping(start))
        return time.perf_counter() - start

    async def _await_ping(self, start: float) -> None:
        while True:
            if self.process.poll() is not None:
                tail = self.log_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server exited with code {self.process.returncode}:\n{tail}")
            if time.perf_counter() - start > 60:
                raise RuntimeError("server did not answer ping within 60 s")
            try:
                reader, writer = await asyncio.open_unix_connection(self.socket_path)
            except OSError:
                await asyncio.sleep(0.005)
                continue
            try:
                writer.write(b'{"op":"ping","id":0}\n')
                await writer.drain()
                reply = json.loads(await reader.readline())
                if not reply.get("ok"):
                    raise RuntimeError(f"ping refused: {reply}")
                return
            finally:
                writer.close()
                await writer.wait_closed()

    def stop(self) -> float | None:
        """Stop the server gracefully; returns its peak RSS in MiB.

        Reads the live server's VmHWM; where /proc is unavailable, falls
        back to the largest peak among this process's waited children
        (the servers).
        """
        if self.process is None:
            return None
        peak = proc_peak_rss_mb(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process = None
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return peak

    # -- load ------------------------------------------------------------
    def _frame(self, request_id: int, index: int) -> bytes:
        return b'{"id":%d,' % request_id + self.pool[index][2][1:] + b"\n"

    @staticmethod
    def _reply_id(line: bytes) -> int:
        # Replies start with the echoed id: {"id":123,...
        return int(line[6 : line.index(b",", 6)])

    async def _control(self, reader, writer, op: str) -> dict:
        writer.write(json.dumps({"op": op, "id": op}).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    async def _open_loop(self, reader, writer, duration: float, first_id: int) -> dict:
        """Seeded Poisson arrivals at RATE_RPS for ``duration`` seconds."""
        gaps = self.rng.exponential(1.0 / self.RATE_RPS, int(self.RATE_RPS * duration * 2) + 16)
        due = np.cumsum(gaps)
        due = due[due < duration]
        picks = self.rng.integers(0, self.POOL, due.size)
        sent: dict[int, tuple[float, int]] = {}
        replies: dict[int, tuple[float, bytes]] = {}
        late: list[float] = []

        async def receive() -> None:
            while len(replies) < due.size:
                line = await reader.readline()
                if not line:
                    return
                replies[self._reply_id(line)] = (time.perf_counter(), line)

        receiver = asyncio.create_task(receive())
        origin = time.perf_counter()
        for i in range(due.size):
            wait = origin + due[i] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            now = time.perf_counter()
            late.append(now - origin - due[i])
            request_id = first_id + i
            sent[request_id] = (origin + due[i], int(picks[i]))
            writer.write(self._frame(request_id, int(picks[i])))
            await writer.drain()
        try:
            await asyncio.wait_for(receiver, timeout=REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        return {"sent": sent, "replies": replies, "late": late, "seconds": duration}

    async def _closed_round(self, reader, writer, first_id: int) -> dict:
        """Send the round's request list with WINDOW outstanding; time to the last reply."""
        sent: dict[int, tuple[float, int]] = {}
        replies: dict[int, tuple[float, bytes]] = {}
        queue = iter(self.round_list)
        next_id = first_id
        start = time.perf_counter()

        def send() -> bool:
            nonlocal next_id
            index = next(queue, None)
            if index is None:
                return False
            sent[next_id] = (time.perf_counter(), int(index))
            writer.write(self._frame(next_id, int(index)))
            next_id += 1
            return True

        for _ in range(self.WINDOW):
            send()
        await writer.drain()
        while len(replies) < len(sent):
            line = await asyncio.wait_for(reader.readline(), timeout=REPLY_TIMEOUT_S)
            if not line:
                break
            replies[self._reply_id(line)] = (time.perf_counter(), line)
            if send():
                await writer.drain()
        return {"sent": sent, "replies": replies, "seconds": time.perf_counter() - start}

    def check(self, phase: dict, tally: dict) -> list[float | None]:
        """Decode and check every reply; returns per-request latency (None = failed)."""
        latencies = []
        for request_id, (sent_at, index) in phase["sent"].items():
            signature, values, _ = self.pool[index]
            tally["attempted"] += 1
            got = phase["replies"].get(request_id)
            if got is None:
                tally["failed"] += 1
                tally["timeouts"] += 1
                latencies.append(None)
                continue
            reply = json.loads(got[1])
            if not reply.get("ok"):
                tally["failed"] += 1
                tally["errors"] += 1
                if len(tally["messages"]) < 5:
                    tally["messages"].append(f"{reply.get('error')}: {reply.get('detail')}")
                latencies.append(None)
                continue
            y = np.asarray(reply["output"], dtype=values.dtype)
            if not check_output(signature, values, y, serial_words=64):
                tally["failed"] += 1
                tally["mismatches"] += 1
                latencies.append(None)
                continue
            latencies.append(got[0] - sent_at)
        return latencies

    def words_of(self, phase: dict) -> int:
        return sum(self.pool[index][1].size for _, index in phase["sent"].values())

    async def _drive(self, seconds: float) -> dict:
        reader, writer = await asyncio.open_unix_connection(self.socket_path, limit=READ_LIMIT)
        try:
            open_s = seconds * self.OPEN_SHARE
            ref_ms = [ref_kernel_ms()]
            phase_a = await self._open_loop(reader, writer, open_s, first_id=1)
            metrics_a = await self._control(reader, writer, "metrics")
            slo_a = await self._control(reader, writer, "slo")
            rounds = []
            next_id = 10_000_000
            closed_start = time.perf_counter()
            while (
                time.perf_counter() - closed_start < seconds - open_s or len(rounds) < 3
            ):
                ref_ms.append(ref_kernel_ms())
                rounds.append(await self._closed_round(reader, writer, next_id))
                next_id += 1_000_000
            ref_ms.append(ref_kernel_ms())
            metrics_b = await self._control(reader, writer, "metrics")
            return {
                "open": phase_a,
                "closed": rounds,
                "metrics_a": metrics_a,
                "slo_a": slo_a,
                "metrics_b": metrics_b,
                "ref_ms": ref_ms,
            }
        finally:
            writer.close()
            await writer.wait_closed()

    def run(self, seconds: float) -> dict:
        """Drive both phases against the live server; returns raw phase data."""
        return asyncio.run(self._drive(seconds))

    # -- serve-layer timings from outside: the workload's own frames -----
    def codec_timings(self, phase: dict, per_class: int = 32) -> dict:
        """Mean seconds per ``parse_frame`` / ``encode_reply`` call, per size class.

        Times the protocol functions on this workload's own request
        frames and on the replies the server sent for them in ``phase``.
        """
        out = {}
        for size in self.SIZES:
            ids = [
                request_id
                for request_id, (_, index) in phase["sent"].items()
                if self.pool[index][1].size == size and request_id in phase["replies"]
            ][:per_class]
            if not ids:
                continue
            frames = [self._frame(i, phase["sent"][i][1]) for i in ids]
            replies = [json.loads(phase["replies"][i][1]) for i in ids]
            start = time.perf_counter()
            for frame in frames:
                parse_frame(frame)
            out[f"decode.n{size}"] = (time.perf_counter() - start) / len(frames)
            start = time.perf_counter()
            for reply in replies:
                encode_reply(reply)
            out[f"encode.n{size}"] = (time.perf_counter() - start) / len(replies)
        return out
