"""Timing helpers: drift reference, summaries, peak memory and spans.

Nothing here imports the library under test.  The span recorder wraps
public callables of the library from outside (attribute patching), so
the untraced run executes the library exactly as a caller would.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def ref_kernel_ms(samples: int = 3) -> float:
    """Time the benchmark-owned drift reference, in milliseconds.

    A fixed pure-Python loop plus small numpy calls: the same mix of
    interpreter work and numpy dispatch that bounds short solves, with
    no library code in it.  Its time tracks how fast the box runs
    interpreter-bound work at this moment; the median of ``samples``
    back-to-back timings damps a single preempted sample.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(30000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 255] = acc
        block = np.arange(1024, dtype=np.float32)
        for _ in range(300):
            block = np.cumsum(block[::-1]) * np.float32(1e-3)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def spawn_ref_ms(samples: int = 3) -> float:
    """Time the benchmark-owned set-up reference, in milliseconds.

    Starts a bare interpreter (``python -c pass``): process creation,
    exec, dynamic loading and page faults, the costs that dominate
    compiling native kernels and starting the server, and that the
    interpreter-bound reference does not exercise.  Returns the median
    of ``samples`` starts.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    values = [float(v) for v in values]
    if not values:
        return {"median": float("nan"), "q1": float("nan"), "q3": float("nan"), "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (pct in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float | None:
    """Peak RSS (VmHWM) of a live process, MiB; None when unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


class SpanRecorder:
    """In-memory spans around wrapped library calls.

    Each span records its name, start, end, parent span and operation
    id; spans of one workload operation share the id.  ``install`` wraps
    a callable attribute of a module or class; ``uninstall`` restores
    every original, so untraced rounds run the unmodified library.
    Spans are written out once, by :meth:`dump`, when the run ends.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.words: list[int] = []
        self.attempts = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = 0
        self.active = False

    # -- recording ----------------------------------------------------
    def next_op(self) -> None:
        self.op_id += 1

    def _open(self, name: str, words: int = 0) -> int:
        index = len(self.names)
        self.names.append(name)
        self.words.append(words)
        self.start.append(time.perf_counter())
        self.end.append(float("nan"))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name: str, original):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            # The span's words: the size of the first array argument.
            words = next((a.size for a in args if isinstance(a, np.ndarray)), 0)
            index = recorder._open(name, words)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            attempts = getattr(result, "attempts", None)
            if isinstance(attempts, list):
                recorder.attempts += len(attempts)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span name)`` and start recording.

        A wrapped call that returns a report with an ``attempts`` list
        (the resilience chain's) adds its length to :attr:`attempts`.
        """
        for owner, attr, name in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))
        self.active = True

    def uninstall(self) -> None:
        """Restore every wrapped attribute and stop recording."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------
    def mark(self) -> int:
        """Position to analyse spans recorded after this point."""
        return len(self.names)

    def totals(self, ranges) -> dict:
        """Per span name over index ranges: total and self seconds, calls, words.

        Self time is a span's duration minus the time its direct child
        spans cover (children of one span never overlap: every wrapped
        call runs on the calling thread).  Returns
        ``{name: {"total": s, "self": s, "calls": n, "words": w}}``.
        """
        out: dict[str, dict] = {}
        for since, until in ranges:
            child_time = [0.0] * (until - since)
            for i in range(since, until):
                parent = self.parent[i]
                if parent >= since:
                    child_time[parent - since] += self.end[i] - self.start[i]
            for i in range(since, until):
                entry = out.setdefault(
                    self.names[i], {"total": 0.0, "self": 0.0, "calls": 0, "words": 0}
                )
                duration = self.end[i] - self.start[i]
                entry["total"] += duration
                entry["self"] += duration - child_time[i - since]
                entry["calls"] += 1
                entry["words"] += self.words[i]
        return out

    def enclosing_total(self, outer: str, inner: str, ranges) -> float:
        """Total duration of ``outer`` spans that enclose an ``inner`` span."""
        hosts: set[int] = set()
        for since, until in ranges:
            for i in range(since, until):
                if self.names[i] != inner:
                    continue
                parent = self.parent[i]
                while parent >= since and self.names[parent] != outer:
                    parent = self.parent[parent]
                if parent >= since:
                    hosts.add(parent)
        return sum(self.end[i] - self.start[i] for i in hosts)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (name table + columns)."""
        names = sorted(set(self.names))
        code = {name: i for i, name in enumerate(names)}
        origin = self.start[0] if self.start else 0.0
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op", "words"],
            "spans": [
                [
                    code[self.names[i]],
                    round(self.start[i] - origin, 7),
                    round(self.end[i] - origin, 7),
                    self.parent[i],
                    self.op[i],
                    self.words[i],
                ]
                for i in range(len(self.names))
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
