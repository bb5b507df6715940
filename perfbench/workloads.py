"""The in-process workloads: long_1d, stream_1d and batch_mixed.

Each workload generates its inputs from the seed before anything is
timed, then runs *rounds*.  A round executes every configuration of the
workload once, round-robin, so all backends and signatures sample the
same machine speed; outputs are checked after each call, outside the
timed region, and dropped.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import (
    BatchEngine,
    BatchRequest,
    OptimizationConfig,
    PLRSolver,
    Recurrence,
    clear_factor_cache,
    plan_execution,
    table1_signatures,
)
from repro.codegen import jit
from repro.codegen.ir import KernelIR
from repro.plr import StreamingSolver, optimize_factors
from repro.plr import solver as plr_solver

from checks import check_output
from measure import ref_kernel_ms

TABLE1 = table1_signatures()


@dataclass
class RoundResult:
    """Timed seconds and true words per throughput family, plus checks."""

    seconds: dict = field(default_factory=dict)
    words: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    errors: list = field(default_factory=list)
    ranges: dict = field(default_factory=dict)
    """Span index ranges per family, filled while a recorder is active."""
    speed_seconds: dict = field(default_factory=dict)
    """Per family, the sum over calls of seconds x the speed of the drift
    reference timed just before and just after the call (higher is
    faster); over the reference's nominal speed, the family's seconds at
    nominal speed."""

    def add(self, family: str, seconds: float, words: int, speed: float, span_range=None) -> None:
        self.seconds[family] = self.seconds.get(family, 0.0) + seconds
        self.words[family] = self.words.get(family, 0) + words
        self.speed_seconds[family] = self.speed_seconds.get(family, 0.0) + seconds * speed
        if span_range is not None:
            self.ranges.setdefault(family, []).append(span_range)

    def outcome(self, ok: bool, mismatch: bool = False, error: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches += int(mismatch)
            if error and len(self.errors) < 5:
                self.errors.append(error)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())


@dataclass
class SetupKey:
    """One (signature, chunk size, dtype) a workload needs a table for.

    ``plan`` is set when the workload also runs a native kernel for it.
    """

    recurrence: Recurrence
    chunk_size: int
    dtype: np.dtype
    plan: object = None

    @property
    def ident(self) -> tuple:
        return (str(self.recurrence.signature), self.chunk_size, self.dtype.str)


def _unique(keys) -> list:
    """Drop duplicate keys (first wins), in a stable order."""
    out = {}
    for key in keys:
        out.setdefault(key.ident, key)
    return [out[ident] for ident in sorted(out)]


def cold_setup(keys, cache_dir: Path) -> float:
    """Empty every cache, then build what ``keys`` need; returns seconds.

    Factor tables come from ``cached_factor_table`` after the factor
    cache is cleared.  Native kernels come from ``native_kernel`` with
    the in-memory kernel cache cleared and ``PLR_NATIVE_CACHE_DIR``
    pointing at a fresh empty directory, built from the same kernel IR
    the native backend builds (recursive-only signature, one serial cell
    per chunk).
    """
    clear_factor_cache()
    jit.clear_native_cache()
    cache_dir.mkdir(parents=True)
    os.environ["PLR_NATIVE_CACHE_DIR"] = str(cache_dir)
    start = time.perf_counter()
    for key in keys:
        # Looked up on the modules at call time, so a traced run's spans
        # see these calls.
        table = plr_solver.cached_factor_table(
            key.recurrence.recursive_signature, key.chunk_size, key.dtype
        )
        if key.plan is not None:
            jit.native_kernel(
                KernelIR(
                    recurrence=Recurrence(key.recurrence.recursive_signature),
                    plan=replace(key.plan, values_per_thread=key.plan.chunk_size),
                    table=table,
                    factor_plan=optimize_factors(table, OptimizationConfig()),
                    dtype=key.dtype,
                )
            )
    return time.perf_counter() - start


def _loguniform_lengths(rng, count: int, low: int, high: int) -> np.ndarray:
    """Log-uniform lengths in [low, high], stratified: one draw per quantile
    slice, shuffled.  Every seed then gets the same length mix (and nearly
    the same total words), while the lengths themselves stay seeded."""
    slices = (np.arange(count) + rng.random(count)) / count
    lengths = np.exp(np.log(low) + slices * (np.log(high + 1) - np.log(low)))
    return rng.permutation(lengths.astype(np.int64))


def _values(rng, n: int, dtype) -> np.ndarray:
    if np.dtype(dtype).kind == "i":
        return rng.integers(-100, 100, n, dtype=dtype)
    return rng.standard_normal(n, dtype=np.float32)


def ref_speed(before_ms: float, after_ms: float) -> float:
    """Speed (1/ms) of the reference kernel timed around a call."""
    return 2.0 / (before_ms + after_ms)


def _checked(result: RoundResult, signature, x, y) -> None:
    ok = check_output(signature, x, y, serial_words=64)
    result.outcome(ok, mismatch=not ok, error="" if ok else f"mismatch on {signature}")


# ----------------------------------------------------------------------
class Long1D:
    """One long sequence per call through each backend, plus the roofline."""

    name = "long_1d"
    N = 1 << 25
    CASES = (("prefix_sum", np.int32), ("high_pass_2", np.float32))
    BACKENDS = ("single", "native", "process")
    min_rounds = 3
    warmup_rounds = 0

    def __init__(self, seed: int, nproc: int) -> None:
        rng = np.random.default_rng(seed)
        self.inputs = {name: _values(rng, self.N, dtype) for name, dtype in self.CASES}
        # The memcpy destination, with its pages touched before timing.
        # It stays resident for the whole run, so peak_rss_mb leaves it out.
        self.copy_dst = self.inputs["prefix_sum"].copy()
        self.own_mib = self.copy_dst.nbytes / 2**20
        self.solvers = {
            (name, backend): PLRSolver(
                TABLE1[name],
                backend=backend,
                workers=nproc if backend == "process" else None,
            )
            for name, _ in self.CASES
            for backend in self.BACKENDS
        }
        self.memcpy_words_per_s: list[float] = []
        self.sizes = {
            "n": self.N,
            "array_mib": {name: self.N * np.dtype(d).itemsize / 2**20 for name, d in self.CASES},
            "process_workers": nproc,
        }

    def setup_keys(self):
        keys = []
        for name, dtype in self.CASES:
            recurrence = Recurrence(TABLE1[name])
            plan = plan_execution(recurrence.signature, self.N)
            keys.append(SetupKey(recurrence, plan.chunk_size, np.dtype(dtype), plan))
        return keys

    def _memcpy_words_per_s(self, copies: int = 3) -> float:
        """Median rate of ``copies`` DRAM-sized np.copyto calls."""
        rates = []
        for _ in range(copies):
            start = time.perf_counter()
            np.copyto(self.copy_dst, self.inputs["prefix_sum"])
            rates.append(self.N / (time.perf_counter() - start))
        return statistics.median(rates)

    def round(self, index: int, recorder) -> RoundResult:
        """Every (signature, backend) solve once, each checked.

        The box's memory speed moves within a round, so the memcpy is
        timed just before and just after every solve, and the solve's
        time is scaled by their mean.  The round's median memcpy is the
        roofline.
        """
        result = RoundResult()
        copies = []
        for name, _ in self.CASES:
            x = self.inputs[name]
            for backend in self.BACKENDS:
                solver = self.solvers[(name, backend)]
                before = self._memcpy_words_per_s()
                recorder.next_op()
                since = recorder.mark()
                try:
                    start = time.perf_counter()
                    y = solver.solve(x)
                    elapsed = time.perf_counter() - start
                except Exception as exc:  # counted, reported, never fatal
                    result.outcome(False, error=f"{name}/{backend}: {type(exc).__name__}: {exc}")
                    continue
                span_range = (since, recorder.mark())
                after = self._memcpy_words_per_s()
                copies += [before, after]
                result.add(backend, elapsed, x.size, (before + after) / 2, span_range)
                ok = check_output(TABLE1[name], x, y)
                result.outcome(ok, mismatch=not ok, error="" if ok else f"mismatch {name}/{backend}")
                del y
        self.memcpy_words_per_s.append(statistics.median(copies))
        return result


# ----------------------------------------------------------------------
class Stream1D:
    """Three streams fed one seeded block at a time."""

    name = "stream_1d"
    STREAMS = (
        ("order2_prefix_sum", np.int32),
        ("low_pass_1", np.float32),
        ("high_pass_1", np.float32),
    )
    SESSIONS = 8
    BLOCKS_PER_SESSION = 48
    LOW, HIGH = 64, 16384
    min_rounds = 3

    def __init__(self, seed: int, nproc: int) -> None:
        rng = np.random.default_rng(seed)
        # One stratified set of lengths per stream, split into sessions:
        # every seed pushes nearly the same multiset of block lengths.
        self.sessions = [{} for _ in range(self.SESSIONS)]
        for name, dtype in self.STREAMS:
            lengths = _loguniform_lengths(
                rng, self.SESSIONS * self.BLOCKS_PER_SESSION, self.LOW, self.HIGH
            ).reshape(self.SESSIONS, self.BLOCKS_PER_SESSION)
            for session, row in zip(self.sessions, lengths):
                session[name] = [_values(rng, int(n), dtype) for n in row]
        self.streams = {name: StreamingSolver(TABLE1[name], dtype=dtype) for name, dtype in self.STREAMS}
        self.sizes = {
            "block_len": [self.LOW, self.HIGH],
            "sessions_per_round": self.SESSIONS,
            "blocks_per_session_per_stream": self.BLOCKS_PER_SESSION,
        }

    def setup_keys(self):
        keys = []
        for name, dtype in self.STREAMS:
            recurrence = Recurrence(TABLE1[name])
            inner = recurrence.recursive_signature
            for session in self.sessions:
                for block in session[name]:
                    n = block.size
                    keys.append(SetupKey(recurrence, plan_execution(inner, n).chunk_size, np.dtype(dtype)))
                    # The carry fold's table, rounded up to a power of two.
                    keys.append(SetupKey(recurrence, max(64, 1 << (n - 1).bit_length()), np.dtype(dtype)))
        return _unique(keys)

    def round(self, index: int, recorder) -> RoundResult:
        """Every session once: reset the streams, push its blocks, check them.

        The box's speed moves within a round, so the drift reference is
        timed between sessions, and each session's time is scaled by the
        reference's speed just before and just after it.
        """
        result = RoundResult()
        before = ref_kernel_ms(1)
        for session in self.sessions:
            before = self._session(session, result, recorder, before)
        return result

    def _session(self, session: dict, result: RoundResult, recorder, ref_before: float) -> float:
        """Run one session; returns the reference timed right after its pushes."""
        outputs = {name: [] for name, _ in self.STREAMS}
        for stream in self.streams.values():
            stream.reset()
        words = 0
        since = recorder.mark()
        start = time.perf_counter()
        for i in range(self.BLOCKS_PER_SESSION):
            for name, stream in self.streams.items():
                block = session[name][i]
                recorder.next_op()
                try:
                    outputs[name].append(stream.push(block))
                    words += block.size
                except Exception as exc:  # counted, reported, never fatal
                    outputs[name].append(None)
                    result.outcome(False, error=f"{name}: {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        span_range = (since, recorder.mark())
        ref_after = ref_kernel_ms(1)
        result.add("single", seconds, words, ref_speed(ref_before, ref_after), span_range)
        # Every push checked: the stream's concatenated output must solve
        # the recurrence over its concatenated input (carries included).
        for name, _ in self.STREAMS:
            pushed = outputs[name]
            if any(out is None for out in pushed):
                continue
            ok = check_output(TABLE1[name], np.concatenate(session[name]), np.concatenate(pushed))
            for _ in pushed:
                result.outcome(ok, mismatch=not ok, error="" if ok else f"mismatch in stream {name}")
        return ref_after


# ----------------------------------------------------------------------
class BatchMixed:
    """Seeded mixed queues through the batch engine, single and native."""

    name = "batch_mixed"
    SIGNATURES = (
        "prefix_sum",
        "tuple2_prefix_sum",
        "order2_prefix_sum",
        "low_pass_1",
        "low_pass_2",
        "high_pass_1",
    )
    FLOAT_SIGNATURES = ("low_pass_1", "low_pass_2", "high_pass_1")
    QUEUE = 256
    QUEUES = 4
    LOW, HIGH = 16, 65536
    LOSSY_SHARE = 0.02
    ENGINES = ("single", "native")
    min_rounds = 4

    def __init__(self, seed: int, nproc: int) -> None:
        rng = np.random.default_rng(seed)
        self.queues = []
        for _ in range(self.QUEUES):
            lengths = _loguniform_lengths(rng, self.QUEUE, self.LOW, self.HIGH)
            # Signatures take turns along the sorted lengths, so each one
            # gets the same share of short and long requests on every seed.
            names = np.empty(self.QUEUE, dtype=object)
            turn = int(rng.integers(len(self.SIGNATURES)))
            for rank, position in enumerate(np.argsort(lengths)):
                names[position] = self.SIGNATURES[(rank + turn) % len(self.SIGNATURES)]
            lossy = np.zeros(self.QUEUE, dtype=bool)
            lossy[rng.choice(self.QUEUE, round(self.QUEUE * self.LOSSY_SHARE), replace=False)] = True
            queue = []
            for name, n, is_lossy in zip(names, lengths, lossy):
                signature = TABLE1[str(name)]
                if is_lossy:
                    # int32 data under a fractional-coefficient signature:
                    # the grouped pass rejects it, isolation completes it.
                    signature = TABLE1[str(rng.choice(self.FLOAT_SIGNATURES))]
                    queue.append(
                        BatchRequest(signature, _values(rng, int(n), np.int32), dtype=np.int32)
                    )
                else:
                    dtype = np.int32 if signature.is_integer else np.float32
                    queue.append(BatchRequest(signature, _values(rng, int(n), dtype)))
            self.queues.append(queue)
        self.engines = {backend: BatchEngine(backend=backend) for backend in self.ENGINES}
        self.sizes = {
            "queue_requests": self.QUEUE,
            "distinct_queues": self.QUEUES,
            "request_len": [self.LOW, self.HIGH],
            "lossy_int32_share": self.LOSSY_SHARE,
        }

    def setup_keys(self):
        keys = []
        planner = self.engines["single"].planner
        for queue in self.queues:
            for group in planner.plan(queue):
                if group.dtype.kind == "i" and not group.signature.is_integer:
                    continue  # rejected by the grouped pass, never planned
                recurrence = Recurrence(group.signature)
                plan = plan_execution(group.signature, group.bucket)
                keys.append(SetupKey(recurrence, plan.chunk_size, group.dtype, plan))
        return _unique(keys)

    def round(self, index: int, recorder) -> RoundResult:
        """One queue through both engines; rounds cycle the queues.

        Each queue alternates which engine goes first on successive
        visits.  Each engine's time is scaled by the reference's speed
        timed just before and just after it; the sample after one engine
        is the next one's before.
        """
        result = RoundResult()
        queue = self.queues[index % self.QUEUES]
        words = sum(request.n for request in queue)
        order = self.ENGINES if (index // self.QUEUES) % 2 == 0 else self.ENGINES[::-1]
        ref_before = ref_kernel_ms(1)
        for backend in order:
            recorder.next_op()
            since = recorder.mark()
            start = time.perf_counter()
            outcomes = self.engines[backend].execute(queue)
            seconds = time.perf_counter() - start
            span_range = (since, recorder.mark())
            ref_after = ref_kernel_ms(1)
            result.add(backend, seconds, words, ref_speed(ref_before, ref_after), span_range)
            ref_before = ref_after
            for request, outcome in zip(queue, outcomes):
                if not outcome.ok:
                    result.outcome(False, error=f"{backend}: {type(outcome.error).__name__}: {outcome.error}")
                    continue
                _checked(result, request.signature, request.values, outcome.output)
        return result


IN_PROCESS = {cls.name: cls for cls in (Long1D, Stream1D, BatchMixed)}
