#!/usr/bin/env python3
"""Benchmark of the PLR stack: one workload per invocation.

    python3 perfbench/run.py --workload long_1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads: long_1d, stream_1d, batch_mixed, serve_mixed (see
``perfbench/workloads.json`` for what each stresses and why).

Every run uses private state under ``.perfbench_runs/`` in the checkout:
an empty native-kernel cache, a tuning-table path that does not exist
(plans follow the paper's heuristics), and its own temp dir; all of it
is removed when the run ends.  ``--trace 0`` measures the end-to-end
metrics with nothing patched; ``--trace 1`` is a separate run that
wraps the library's public calls in spans and reports per-layer
metrics, writing the spans to ``.perfbench_out/``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any output failed its check and 2
when the library cannot be imported.

The workload runs in a child process.  The library starts helper
processes of its own (fork pools, compilers, and multiprocessing's
resource tracker, which exits only after the process that started it
has exited), so this process adopts every orphaned descendant (Linux
``PR_SET_CHILD_SUBREAPER``) and exits only after each has ended and
been waited for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_1d", "stream_1d", "batch_mixed", "serve_mixed")
CONFIG = json.loads((HERE / "workloads.json").read_text())
CHILD_ENV = "PERFBENCH_CHILD"
PR_SET_CHILD_SUBREAPER = 36
# How long descendants may take to end on their own once the workload
# process has exited; whatever is left after that is killed.
REAP_GRACE_S = 20.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def private_state(run_dir: Path, nproc: int) -> dict:
    """Point every cache and temp path of this run (and its children) at run_dir."""
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["PLR_NATIVE_CACHE_DIR"] = str(run_dir / "cgen")
    os.environ["PLR_TUNE_DB"] = str(run_dir / "absent" / "tune.json")
    os.environ["OMP_NUM_THREADS"] = str(nproc)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    source = str(ROOT / "src")
    os.environ["PYTHONPATH"] = source
    sys.path.insert(0, source)
    return dict(os.environ)


def cache_sizes() -> dict:
    """Cache sizes as ``getconf`` reports them (empty when unavailable)."""
    out = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            value = subprocess.run(
                ["getconf", key], capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            value = ""
        out[key] = int(value) if value.isdigit() else None
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM raises SystemExit, so the finally blocks still stop the
    # server and remove the run's private state.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    nproc = os.cpu_count() or 1
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    if not (ROOT / "src" / "repro").is_dir():
        print("error: run from the root of a source checkout (src/repro missing)", file=sys.stderr)
        return 2
    run_dir.mkdir(parents=True)
    try:
        env = private_state(run_dir, nproc)
        try:
            import numpy  # noqa: F401
            import repro  # noqa: F401
        except ImportError as exc:
            print(f"error: cannot import the library: {exc}", file=sys.stderr)
            return 2
        from runner import run_workload

        result = run_workload(args, run_dir, env, nproc, CONFIG, cache_sizes())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _children() -> list[int]:
    """Pids of this process's children, adopted ones too (empty without /proc)."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc") if os.path.isdir("/proc") else ():
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap_all(grace_s: float) -> None:
    """Wait until no child is left; kill those still running after grace_s."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def supervise(argv) -> int:
    """Run ``main`` in a child; return its exit code once every descendant is gone."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, direct children are still reaped
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env={**os.environ, CHILD_ENV: "1"},
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda signum, _frame: child.send_signal(signum))
    code = child.wait()
    _reap_all(REAP_GRACE_S)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(CHILD_ENV) else supervise(sys.argv[1:]))
