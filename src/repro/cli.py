"""The ``plr`` command line: the paper's tool, plus the evaluation.

Subcommands:

* ``plr compile "(1: 2, -1)" --backend cuda`` — translate a signature
  into CUDA/C/Python source (the paper's PLR compiler);
* ``plr run "(1: 2, -1)" -n 1000000`` — compute a recurrence with the
  chosen backend and verify against the serial reference;
* ``plr info "(1: 2, -1)"`` — classification, execution plan, and the
  optimizer's factor-realization decisions;
* ``plr factors "(1: 2, -1)" -m 16`` — print the correction-factor
  lists (the n-nacci sequences of Section 2.1);
* ``plr figures [fig1 fig2 ...]`` — reproduce the paper's throughput
  figures on the modeled Titan X;
* ``plr tables`` — reproduce Tables 2 and 3;
* ``plr chaos`` — sweep random fault plans through the resilient
  solver and check "correct output or typed error, never silent
  corruption";
* ``plr trace`` — run a traced solve and write a Chrome trace-event
  JSON file (load it in Perfetto or chrome://tracing);
* ``plr profile`` — run the simulator under tracing and write the
  trace, the metrics snapshot, and an SVG timeline, plus a pipeline
  profile (look-back depths, stalls, critical path) to stdout.
* ``plr batch`` — solve a JSONL queue of mixed requests through the
  batched execution engine (grouping, vectorized passes, per-request
  failure isolation) and report group/padding statistics.
* ``plr bench`` — measure the serial reference vs. the vectorized
  solver vs. the multicore process backend and write a
  ``BENCH_parallel.json`` trajectory point; ``--compare BASELINE``
  turns it into a perf-regression gate (exit 1 past ``--tolerance``,
  ``--update-baseline`` to accept an intentional change).
* ``plr serve`` — run the long-lived JSONL solve server (adaptive
  micro-batching, deadlines, admission control, circuit breaker,
  graceful drain); ``--self-test`` runs a built-in client smoke test
  against an ephemeral instance and exits.
* ``plr slo`` — query a live server's SLO report (latency-objective
  attainment, error budget, multi-window burn rates).
* ``plr metrics`` — query a live server's metrics as JSON or
  Prometheus text exposition (``--format prometheus``).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.codegen.compiler import BACKENDS, PLRCompiler
from repro.core.errors import ReproError
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.core.validation import compare_results
from repro.eval.figures import figure10_throughputs, figure_definitions
from repro.eval.harness import run_experiment
from repro.eval.report import render_figure, render_figure10, render_table
from repro.eval.tables import table2_memory_usage, table3_l2_misses
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import optimize_factors
from repro.plr.solver import SOLVE_BACKENDS, PLRSolver

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plr",
        description="Parallelized Linear Recurrences (ASPLOS 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="translate a signature to code")
    compile_p.add_argument("signature", help='e.g. "(1: 2, -1)"')
    compile_p.add_argument("--backend", choices=BACKENDS, default="cuda")
    compile_p.add_argument("-n", type=int, default=1 << 24, help="planned input size")
    compile_p.add_argument("-o", "--output", help="write source here (default: stdout)")

    run_p = sub.add_parser("run", help="compute a recurrence and verify")
    run_p.add_argument("signature")
    run_p.add_argument("-n", type=int, default=1 << 20)
    run_p.add_argument(
        "--backend",
        choices=("solver", "native", "auto")
        + tuple(b for b in BACKENDS if b != "cuda"),
        default="solver",
        help="solver = numpy; native = JIT-compiled C kernel through the "
        "solver (numpy fallback if no compiler); auto = native from 2^15 "
        "words when a C compiler is available, else numpy; c / python = "
        "run the emitted kernel directly",
    )
    run_p.add_argument("--seed", type=int, default=0)

    info_p = sub.add_parser("info", help="plan and optimization decisions")
    info_p.add_argument("signature")
    info_p.add_argument("-n", type=int, default=1 << 24)

    factors_p = sub.add_parser("factors", help="print correction factors")
    factors_p.add_argument("signature")
    factors_p.add_argument("-m", type=int, default=16, help="factors per carry")

    figures_p = sub.add_parser("figures", help="reproduce throughput figures")
    figures_p.add_argument(
        "ids", nargs="*", help="figure ids (default: all)", metavar="fig1"
    )

    sub.add_parser("tables", help="reproduce Tables 2 and 3")

    sim_p = sub.add_parser(
        "simulate", help="run the functional GPU simulator and report protocol stats"
    )
    sim_p.add_argument("signature")
    sim_p.add_argument("-n", type=int, default=2000)
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument(
        "--fault",
        default="none",
        help=(
            "inject a protocol fault to observe the failure mode: a legacy "
            "preset (none, flag_before_data, skip_local_flag, never_publish) "
            "or a fault kind (delay_flag, drop_local_flag, drop_global_flag, "
            "stale_carry, bit_flip_carry, abort_restart)"
        ),
    )

    chaos_p = sub.add_parser(
        "chaos",
        help="random fault plans vs the resilient solver (the resilience invariant)",
    )
    chaos_p.add_argument("--cases", type=int, default=200, help="sweep size")
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument("-n", type=int, default=160, help="input length per case")
    chaos_p.add_argument(
        "--recurrence",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to these Table 1 recurrences (repeatable; default: all)",
    )
    chaos_p.add_argument(
        "--mode",
        choices=("solver", "engine", "server"),
        default="solver",
        help="solver: fault plans vs the resilient solver; engine: a mixed "
        "pathological queue vs the batch engine; server: hostile clients "
        "vs a live serving instance (slow-loris, malformed frames, worker "
        "death, deadline storms, overload, disconnects, drain)",
    )
    chaos_p.add_argument(
        "-o", "--output", help="also write the report as JSON here"
    )

    sub.add_parser(
        "calibration", help="audit the cost model against the paper's anchors"
    )

    export_p = sub.add_parser(
        "export", help="write figures/tables as CSV + JSON for replotting"
    )
    export_p.add_argument("outdir", help="directory to write into")
    export_p.add_argument(
        "--svg", action="store_true", help="also render each figure as SVG"
    )

    trace_p = sub.add_parser(
        "trace", help="run a traced solve and write Chrome trace-event JSON"
    )
    trace_p.add_argument("signature")
    trace_p.add_argument("-n", "--n", type=int, default=1 << 16)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument(
        "--engine",
        choices=("sim", "solver"),
        default="sim",
        help="sim: the event-ordered GPU simulator (per-block protocol "
        "events); solver: the numpy solver (phase-level spans)",
    )
    trace_p.add_argument(
        "-o",
        "--output",
        default="plr-trace.json",
        help="trace file to write (default: plr-trace.json)",
    )

    profile_p = sub.add_parser(
        "profile",
        help="profile a simulated run: trace + metrics + SVG timeline + "
        "pipeline report",
    )
    profile_p.add_argument("signature")
    profile_p.add_argument("-n", "--n", type=int, default=1 << 16)
    profile_p.add_argument("--seed", type=int, default=0)
    profile_p.add_argument(
        "--outdir",
        default="plr-profile",
        help="directory for trace.json / metrics.json / timeline.svg / "
        "profile.json (default: plr-profile)",
    )

    batch_p = sub.add_parser(
        "batch",
        help="solve a JSONL request queue with the batched execution engine",
    )
    batch_p.add_argument(
        "input",
        help="JSONL file of requests ('-' for stdin); each line is "
        '{"id": ..., "signature": "(1: 2, -1)", "values": [...], '
        '"dtype": "int32"} with id and dtype optional',
    )
    batch_p.add_argument(
        "-o", "--output", help="write one JSON result per request here"
    )
    batch_p.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="cap requests per grouped pass (default: unbounded)",
    )

    bench_p = sub.add_parser(
        "bench",
        help="benchmark serial vs vectorized vs multicore backends",
    )
    bench_p.add_argument(
        "signature", nargs="?", default="(1: 2, -1)", help='e.g. "(1: 2, -1)"'
    )
    bench_p.add_argument("-n", type=int, default=1 << 20, help="input length")
    bench_p.add_argument(
        "--dtype", default=None, help="working dtype (default: paper methodology)"
    )
    bench_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-backend pool size (default: one per core)",
    )
    bench_p.add_argument(
        "--repeat", type=int, default=3, help="timing repetitions; best is kept"
    )
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument(
        "-o",
        "--output",
        default="BENCH_parallel.json",
        help="JSON file to write (default: BENCH_parallel.json)",
    )
    bench_p.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="perf-regression gate: re-run the benchmark the baseline "
        "describes (same op/n/dtype/workers/repeat) and exit 1 if any "
        "(op, n, dtype, backend) row regressed beyond --tolerance",
    )
    bench_p.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="allowed regression per row, percent (default: 10)",
    )
    bench_p.add_argument(
        "--metric",
        choices=("speedup", "wall_s"),
        default="speedup",
        help="gated metric: speedup (relative to same-run serial; robust "
        "to machine-wide noise, the default) or wall_s (absolute)",
    )
    bench_p.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --compare: write the current run over the baseline "
        "and exit 0 — the escape hatch for intentional perf changes",
    )

    slo_p = sub.add_parser(
        "slo",
        help="query a live server's SLO report (attainment, error "
        "budget, burn rates)",
    )
    slo_p.add_argument(
        "--connect",
        default="127.0.0.1:7171",
        metavar="HOST:PORT",
        help="server address (default: 127.0.0.1:7171)",
    )
    slo_p.add_argument(
        "--unix", default=None, metavar="PATH", help="connect over a Unix socket"
    )

    metrics_p = sub.add_parser(
        "metrics",
        help="query a live server's metrics (JSON or Prometheus text)",
    )
    metrics_p.add_argument(
        "--connect",
        default="127.0.0.1:7171",
        metavar="HOST:PORT",
        help="server address (default: 127.0.0.1:7171)",
    )
    metrics_p.add_argument(
        "--unix", default=None, metavar="PATH", help="connect over a Unix socket"
    )
    metrics_p.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="output format (default: json)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the JSONL solve server (micro-batching, deadlines, "
        "admission control, breaker, graceful drain)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=7171, help="TCP port (0 = ephemeral)"
    )
    serve_p.add_argument(
        "--unix", default=None, metavar="PATH", help="serve on a Unix socket instead"
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=256, help="intake queue bound"
    )
    serve_p.add_argument(
        "--max-batch", type=int, default=64, help="requests per grouped flush"
    )
    serve_p.add_argument(
        "--flush-ms", type=float, default=5.0, help="micro-batch window"
    )
    serve_p.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        help="deadline applied to requests that carry none",
    )
    serve_p.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive flush failures before the circuit breaker opens",
    )
    serve_p.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="how long the open breaker fast-rejects before probing",
    )
    serve_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the final metrics snapshot here on drain",
    )
    serve_p.add_argument(
        "--backend",
        choices=SOLVE_BACKENDS,
        default="single",
        help="solve backend for grouped flushes: single = vectorized "
        "numpy; native = JIT-compiled C kernels (numpy fallback when no "
        "compiler); process = multicore sharded pool; auto = native for "
        "a grouped pass whose longest row has 2^15 words or more when a "
        "C compiler is available, else single",
    )
    serve_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-pool size for isolated re-runs (process backend only)",
    )
    serve_p.add_argument(
        "--self-test",
        action="store_true",
        help="start an ephemeral instance, run a client smoke test, exit",
    )
    return parser


def _ensure_writable(path: str, kind: str = "output") -> None:
    """Fail fast — before any expensive work — if ``path`` can't be written.

    Every file-writing subcommand calls this up front so an unwritable
    output path is one typed line and exit 2, not a traceback after
    minutes of solving.
    """
    import os

    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ReproError(
            f"cannot write {kind} {path!r}: "
            f"directory {directory!r} does not exist"
        )
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ReproError(
            f"cannot write {kind} {path!r}: directory {directory!r} "
            "is not writable"
        )
    if os.path.isdir(path):
        raise ReproError(f"cannot write {kind} {path!r}: it is a directory")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise ReproError(f"cannot write {kind} {path!r}: file is not writable")


def _ensure_writable_dir(path: str, kind: str = "output directory") -> None:
    """Like :func:`_ensure_writable` for a directory the command creates."""
    import os

    probe = os.path.abspath(path)
    if os.path.isdir(probe):
        if not os.access(probe, os.W_OK | os.X_OK):
            raise ReproError(f"cannot use {kind} {path!r}: not writable")
        return
    if os.path.exists(probe):
        raise ReproError(f"cannot use {kind} {path!r}: not a directory")
    # Walk up to the nearest existing ancestor; mkdir -p will create the
    # rest, so that ancestor is where writability is decided.
    parent = os.path.dirname(probe)
    while parent and not os.path.isdir(parent):
        if os.path.exists(parent):
            raise ReproError(
                f"cannot create {kind} {path!r}: {parent!r} is not a directory"
            )
        next_parent = os.path.dirname(parent)
        if next_parent == parent:
            break
        parent = next_parent
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK):
        raise ReproError(
            f"cannot create {kind} {path!r}: {parent!r} is not writable"
        )


def _cmd_compile(args: argparse.Namespace) -> int:
    if args.output:
        _ensure_writable(args.output)
    result = PLRCompiler().compile(args.signature, n=args.n, backend=args.backend)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(result.source)
        print(
            f"wrote {args.backend} source for {result.ir.recurrence.signature} "
            f"to {args.output} ({result.codegen_seconds * 1e3:.1f} ms)"
        )
    else:
        print(result.source)
    return 0


def _make_input(recurrence: Recurrence, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if recurrence.is_integer:
        return rng.integers(-100, 100, size=n).astype(np.int32)
    return rng.standard_normal(n).astype(np.float32)


def _cmd_run(args: argparse.Namespace) -> int:
    recurrence = Recurrence.parse(args.signature)
    values = _make_input(recurrence, args.n, args.seed)
    if args.backend in ("solver", "native", "auto"):
        solver = PLRSolver(
            recurrence,
            backend="single" if args.backend == "solver" else args.backend,
        )
        # Build the factor table (and load the native kernel) outside
        # the timer, as ``plr bench`` does.
        solver.solve(values)
        start = time.perf_counter()
        result = solver.solve(values)
        elapsed = time.perf_counter() - start
    else:
        compiled = PLRCompiler().compile(
            recurrence, n=args.n, backend=args.backend
        )
        start = time.perf_counter()
        result = compiled.kernel(values)
        elapsed = time.perf_counter() - start
    expected = serial_full(values, recurrence.signature)
    report = compare_results(result, expected)
    throughput = args.n / elapsed / 1e6
    print(
        f"{recurrence.signature} n={args.n} backend={args.backend}: "
        f"{elapsed * 1e3:.1f} ms ({throughput:.1f} M words/s) — {report.describe()}"
    )
    return 0 if report.ok else 1


def _cmd_info(args: argparse.Namespace) -> int:
    recurrence = Recurrence.parse(args.signature)
    compiler = PLRCompiler()
    ir = compiler.build_ir(recurrence, n=args.n)
    cls = recurrence.classification
    print(f"signature      {recurrence.signature}")
    print(f"class          {cls.kind.value} (order {cls.order})")
    print(f"dtype          {ir.dtype}")
    print(f"plan           {ir.plan.describe()}")
    print(f"factor table   {ir.table.describe()}")
    for decision in ir.factor_plan.decisions:
        extras = []
        if decision.constant is not None:
            extras.append(f"constant={decision.constant}")
        if decision.period is not None:
            extras.append(f"period={decision.period}")
        if decision.cutoff is not None:
            extras.append(f"cutoff={decision.cutoff}")
        suffix = f" ({', '.join(extras)})" if extras else ""
        print(
            f"carry {decision.carry_index}        "
            f"{decision.realization.value}{suffix}"
        )
    from repro.plr.solver import factor_cache_stats

    stats = factor_cache_stats()
    print(
        f"factor cache   {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['size']}/{stats['max_size']} tables resident"
    )
    return 0


def _cmd_factors(args: argparse.Namespace) -> int:
    recurrence = Recurrence.parse(args.signature)
    dtype = np.int64 if recurrence.is_integer else np.float64
    table = CorrectionFactorTable.build(
        recurrence.recursive_signature, args.m, dtype
    )
    plan = optimize_factors(table)
    for j in range(table.order):
        values = ", ".join(str(v) for v in table.row(j))
        print(f"carry {j} (w[m-1-{j}]): {values}")
    print(f"analysis: {table.describe()}")
    print(
        "realizations: "
        + ", ".join(d.realization.value for d in plan.decisions)
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    defs = figure_definitions()
    ids = args.ids or sorted(defs) + ["fig10"]
    for fid in ids:
        if fid == "fig10":
            print(render_figure10(figure10_throughputs()))
        elif fid in defs:
            print(render_figure(run_experiment(defs[fid], validate=False)))
        else:
            raise ReproError(f"unknown figure {fid!r}; known: {sorted(defs)} + fig10")
        print()
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    print(render_table(table2_memory_usage(), "Table 2: Total GPU memory usage (MB)"))
    print()
    print(render_table(table3_l2_misses(), "Table 3: L2 read misses (MB)"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.errors import SimulationError
    from repro.gpusim.executor import SimulatedPLR, coerce_fault_plan
    from repro.gpusim.spec import MachineSpec

    recurrence = Recurrence.parse(args.signature)
    machine = MachineSpec.small_test_gpu()
    values = _make_input(recurrence, args.n, args.seed)
    sim = SimulatedPLR(
        recurrence,
        machine,
        seed=args.seed,
        fault=coerce_fault_plan(args.fault),
        deadlock_rounds=200,
    )
    try:
        result = sim.run(values)
    except SimulationError as exc:
        print(f"simulation aborted: {exc}")
        return 1
    expected = serial_full(values, recurrence.signature)
    report = compare_results(result.output, expected)
    distances = result.lookback_distances
    print(f"machine        {machine.name}")
    print(f"blocks run     {len(result.block_stats)}")
    print(
        f"schedule       {result.schedule_steps} steps, "
        f"{result.schedule_wait_steps} busy-wait"
    )
    if distances:
        print(
            f"look-back      min={min(distances)} max={max(distances)} "
            f"mean={sum(distances) / len(distances):.2f}"
        )
    stats = result.block_stats[0]
    print(
        f"block 0 comms  {stats.shuffles} shuffles, "
        f"{stats.shared_reads + stats.shared_writes} shared-memory ops, "
        f"{stats.barriers} barriers"
    )
    if result.fault_events:
        print(
            f"faults fired   {len(result.fault_events)} "
            f"({', '.join(sorted({e.kind.value for e in result.fault_events}))})"
        )
    if result.restarts:
        print(f"restarts       {result.restarts} aborted blocks reissued")
    print(f"result         {report.describe()}")
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    if args.output:
        _ensure_writable(args.output)
    if args.mode == "engine":
        from repro.resilience.chaos import run_engine_chaos

        report = run_engine_chaos(seed=args.seed, requests=args.cases)
    elif args.mode == "server":
        from repro.resilience.chaos import run_server_chaos

        # The server matrix runs several phases per "case"; scale the
        # per-phase request count down so the default --cases budget
        # means roughly the same wall time as the solver sweep.
        report = run_server_chaos(seed=args.seed, requests=max(8, args.cases // 8))
    else:
        from repro.resilience.chaos import run_chaos

        report = run_chaos(
            cases=args.cases,
            seed=args.seed,
            n=args.n,
            recurrences=args.recurrence,
        )
    print(report.describe())
    if args.output:
        payload = {
            "mode": args.mode,
            "seed": args.seed,
            "ok": report.ok,
            "checks": len(report.outcomes),
            "counts": report.counts(),
            "violations": [
                line.strip()
                for line in report.describe().splitlines()
                if "VIOLATION" in line
            ],
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=1)
        print(f"wrote {args.output}")
    return 0 if report.ok else 1


def _cmd_calibration(args: argparse.Namespace) -> int:
    from repro.eval.calibration import calibration_report, render_calibration

    anchors = calibration_report()
    print(render_calibration(anchors))
    return 0 if all(a.ok for a in anchors) else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.eval.export import export_everything

    _ensure_writable_dir(args.outdir)
    written = export_everything(args.outdir, svg=args.svg)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.exporters import write_chrome_trace
    from repro.obs.tracer import Tracer

    _ensure_writable(args.output, kind="trace file")
    recurrence = Recurrence.parse(args.signature)
    values = _make_input(recurrence, args.n, args.seed)
    tracer = Tracer()
    if args.engine == "sim":
        from repro.gpusim.executor import SimulatedPLR
        from repro.gpusim.spec import MachineSpec

        sim = SimulatedPLR(
            recurrence,
            MachineSpec.small_test_gpu(),
            seed=args.seed,
            tracer=tracer,
        )
        sim.run(values)
    else:
        PLRSolver(recurrence, tracer=tracer).solve(values)
    path = write_chrome_trace(tracer, args.output)
    print(
        f"wrote {len(tracer.events)} events to {path} "
        "(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.exporters import (
        timeline_svg,
        write_chrome_trace,
        write_metrics_json,
    )
    from repro.obs.profile import profile_simulation, write_profile_json

    _ensure_writable_dir(args.outdir)
    profile, tracer, metrics, _ = profile_simulation(
        args.signature, args.n, seed=args.seed
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = [
        write_chrome_trace(tracer, outdir / "trace.json"),
        write_metrics_json(metrics, outdir / "metrics.json"),
        write_profile_json(profile, outdir / "profile.json"),
    ]
    svg_path = outdir / "timeline.svg"
    svg_path.write_text(
        timeline_svg(tracer, title=f"{args.signature} n={args.n} seed={args.seed}")
    )
    written.append(svg_path)
    print(profile.describe())
    for path in written:
        print(f"wrote {path}")
    return 0


def _parse_batch_line(source: str, lineno: int, line: str):
    import json

    from repro.batch import BatchRequest

    try:
        spec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ReproError(f"{source}:{lineno}: each line must be a JSON object")
    missing = [key for key in ("signature", "values") if key not in spec]
    if missing:
        raise ReproError(
            f"{source}:{lineno}: request is missing {', '.join(missing)}"
        )
    dtype = spec.get("dtype")
    try:
        return BatchRequest(
            spec["signature"],
            np.asarray(spec["values"]),
            dtype=np.dtype(dtype) if dtype is not None else None,
            tag=spec.get("id", lineno),
        )
    except ReproError as exc:
        raise ReproError(f"{source}:{lineno}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ReproError(f"{source}:{lineno}: bad request: {exc}") from exc


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.batch import BatchEngine, BatchPlanner

    if args.output:
        _ensure_writable(args.output)
    if args.input == "-":
        source, text = "<stdin>", sys.stdin.read()
    else:
        source = args.input
        with open(args.input) as handle:
            text = handle.read()
    requests = [
        _parse_batch_line(source, lineno, line)
        for lineno, line in enumerate(text.splitlines(), 1)
        if line.strip()
    ]
    engine = BatchEngine(planner=BatchPlanner(max_batch=args.max_batch))
    start = time.perf_counter()
    outcomes = engine.execute(requests)
    elapsed = time.perf_counter() - start

    results = []
    for outcome in outcomes:
        record = {"id": outcome.tag, "ok": outcome.ok, "engine": outcome.engine}
        if outcome.ok:
            record["output"] = np.asarray(outcome.output).tolist()
        else:
            record["error"] = (
                f"{type(outcome.error).__name__}: {outcome.error}"
            )
        if outcome.degradations:
            record["degradations"] = list(outcome.degradations)
        results.append(record)
    if args.output:
        with open(args.output, "w") as handle:
            for record in results:
                handle.write(json.dumps(record) + "\n")
        print(f"wrote {len(results)} results to {args.output}")
    for record in results:
        status = "ok" if record["ok"] else f"FAILED ({record['error']})"
        extra = (
            f" [{'; '.join(record['degradations'])}]"
            if record.get("degradations")
            else ""
        )
        print(f"  {record['id']}: {status} via {record['engine']}{extra}")

    counters = engine.metrics.snapshot()["counters"]
    failed = sum(1 for record in results if not record["ok"])
    print(
        f"{len(results)} requests in {counters.get('batch.groups', 0):g} groups "
        f"({counters.get('batch.empty_requests', 0):g} empty, "
        f"{counters.get('batch.isolated', 0):g} isolated, "
        f"{counters.get('batch.padded_values', 0):g} padded values) "
        f"in {elapsed * 1e3:.1f} ms"
    )
    return 1 if failed else 0


def _time_best(fn, repeat: int) -> tuple[float, object]:
    """Best-of-``repeat`` wall time for ``fn()`` and its last result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _bench_payload(
    signature: str,
    n: int,
    dtype: np.dtype | None,
    workers: int | None,
    repeat: int,
    seed: int,
) -> dict:
    """One full bench run: serial vs vectorized vs process vs native.

    Every non-serial backend is verified against the serial reference.
    The native row is included only when a C compiler is available; its
    kernel is compiled by an untimed warmup solve so the timed repeats
    measure execution, not the one-off JIT cost.

    The payload records provenance a cross-machine reader needs: the
    machine fingerprint (so ``--compare`` can declare foreign
    baselines), the *requested* worker count at the top level (None =
    resolve per machine), and the *effective* worker count per row —
    the process row's pool size is resolved against this machine and
    this plan, not copied from the flag.
    """
    from repro.core.errors import BackendError, CodegenError
    from repro.parallel.sharding import resolve_workers
    from repro.plr.planner import plan_execution
    from repro.tune.fingerprint import machine_fingerprint

    recurrence = Recurrence.parse(signature)
    values = _make_input(recurrence, n, seed)

    serial_s, expected = _time_best(
        lambda: serial_full(values, recurrence.signature, dtype=dtype), repeat
    )

    vec_solver = PLRSolver(recurrence)
    vec_solver.solve(values, dtype=dtype)  # warm the factor-table cache
    vec_s, vec_out = _time_best(
        lambda: vec_solver.solve(values, dtype=dtype), repeat
    )

    proc_solver = PLRSolver(recurrence, backend="process", workers=workers)
    proc_s, proc_out = _time_best(
        lambda: proc_solver.solve(values, dtype=dtype), repeat
    )
    # The pool size the process row actually ran with: the request (or,
    # when unset, one per core) clamped to the plan's chunk count —
    # mirroring solve_sharded exactly.
    plan = plan_execution(recurrence.signature, n)
    proc_workers = resolve_workers(workers, plan.num_chunks)

    native_s = None
    native_error = None
    try:
        native_solver = PLRSolver(
            recurrence, backend="native", native_fallback=False
        )
        native_solver.solve(values, dtype=dtype)  # compile outside the timer
        native_s, native_out = _time_best(
            lambda: native_solver.solve(values, dtype=dtype), repeat
        )
    except (BackendError, CodegenError) as exc:
        native_error = f"{type(exc).__name__}: {exc}"

    checked = [("vectorized", vec_out), ("process", proc_out)]
    if native_s is not None:
        checked.append(("native", native_out))
    for name, out in checked:
        outcome = compare_results(out, expected)
        if not outcome.ok:
            raise ReproError(f"{name} backend mismatch: {outcome.describe()}")

    timings = [
        ("serial", serial_s, 1),
        ("vectorized", vec_s, 1),
        ("process", proc_s, proc_workers),
    ]
    if native_s is not None:
        timings.append(("native", native_s, 1))
    dtype_name = np.dtype(vec_out.dtype).name
    records = [
        {
            "op": str(recurrence.signature),
            "n": n,
            "dtype": dtype_name,
            "backend": backend,
            "workers": row_workers,
            "wall_s": wall,
            "speedup": serial_s / wall if wall > 0 else float("inf"),
        }
        for backend, wall, row_workers in timings
    ]
    payload = {
        "workers": workers,
        "repeat": repeat,
        "fingerprint": machine_fingerprint(),
        "results": records,
    }
    if native_error is not None:
        payload["native_skipped"] = native_error
    return payload


def _print_bench(payload: dict) -> None:
    for record in payload["results"]:
        print(
            f"{record['backend']:<11} {record['wall_s'] * 1e3:9.1f} ms  "
            f"speedup x{record['speedup']:.2f}"
        )


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.eval.benchgate import (
        compare_payloads,
        load_baseline,
        render_report,
    )

    if args.compare:
        # Gate mode: the baseline defines the run — same op, n, dtype,
        # workers, repeat — so rows compare like for like.
        baseline = load_baseline(args.compare)
        stored_fp = baseline.get("fingerprint")
        if isinstance(stored_fp, dict):
            from repro.tune.fingerprint import (
                fingerprint_mismatches,
                machine_fingerprint,
            )

            mismatches = fingerprint_mismatches(stored_fp, machine_fingerprint())
            if mismatches:
                print(
                    "warning: baseline was measured on a different machine "
                    f"({'; '.join(mismatches)}); cross-machine timings gate "
                    "on speedup ratios, not absolute walls",
                    file=sys.stderr,
                )
        if args.update_baseline:
            _ensure_writable(args.compare, kind="baseline")
        first = baseline["results"][0]
        current = _bench_payload(
            signature=first["op"],
            n=int(first["n"]),
            dtype=np.dtype(first["dtype"]),
            workers=baseline.get("workers"),
            repeat=int(baseline.get("repeat", args.repeat)),
            seed=args.seed,
        )
        _print_bench(current)
        report = compare_payloads(
            baseline,
            current,
            tolerance_pct=args.tolerance,
            metric=args.metric,
            # A baseline native row must not fail the gate on machines
            # that cannot compile it — the skip reason is declared.
            skipped_backends={"native": current["native_skipped"]}
            if "native_skipped" in current
            else None,
        )
        print(render_report(report))
        if args.update_baseline:
            with open(args.compare, "w") as handle:
                json.dump(current, handle, indent=1)
            print(f"updated baseline {args.compare}")
            return 0
        return 0 if report.ok else 1

    _ensure_writable(args.output)
    payload = _bench_payload(
        signature=args.signature,
        n=args.n,
        dtype=np.dtype(args.dtype) if args.dtype else None,
        workers=args.workers,
        repeat=args.repeat,
        seed=args.seed,
    )
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=1)
    _print_bench(payload)
    print(f"wrote {args.output}")
    return 0


def _control_address(args: argparse.Namespace):
    """The server address from --unix / --connect (HOST:PORT)."""
    if args.unix:
        return args.unix
    host, sep, port = args.connect.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(
            f"--connect must be HOST:PORT, got {args.connect!r}"
        )
    return (host, int(port))


async def _control_request(address, frame: dict) -> dict:
    """One control round-trip against a live server."""
    from repro.serve import ServeClient

    try:
        client = await ServeClient.connect(address)
    except (ConnectionError, OSError) as exc:
        where = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
        raise ReproError(f"cannot connect to server at {where}: {exc}") from exc
    try:
        reply = await client.request(frame, timeout=10)
    finally:
        await client.close()
    if reply is None:
        raise ReproError("server closed the connection without replying")
    if not reply.get("ok"):
        raise ReproError(
            f"server refused {frame.get('op')!r}: "
            f"{reply.get('error')}: {reply.get('detail')}"
        )
    return reply


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    reply = asyncio.run(_control_request(_control_address(args), {"op": "slo"}))
    report = reply["slo"]
    objective = report["objective"]
    print(
        f"objective: {objective['target']:.2%} of replies ok and "
        f"<= {objective['latency_ms']:g} ms"
    )
    budget = report["error_budget"]
    print(
        f"lifetime:  {report['good']}/{report['total']} good "
        f"(attainment {report['attainment']:.4%}), error budget "
        f"{budget['remaining_fraction']:.1%} remaining"
    )
    for window in report["windows"]:
        print(
            f"  {window['window_s']:g}s window: {window['good']}/{window['total']} "
            f"good, attainment {window['attainment']:.4%}, "
            f"burn rate x{window['burn_rate']:.2f}"
        )
    print(json.dumps(report, indent=1))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    frame: dict = {"op": "metrics"}
    if args.format == "prometheus":
        frame["format"] = "prometheus"
    reply = asyncio.run(_control_request(_control_address(args), frame))
    if args.format == "prometheus":
        print(reply["body"], end="")
    else:
        print(json.dumps({k: reply[k] for k in ("metrics", "serving")}, indent=1))
    return 0


def _serve_config(args: argparse.Namespace, port: int | None = None):
    from repro.serve import ServeConfig

    return ServeConfig(
        host=args.host,
        port=args.port if port is None else port,
        unix_path=args.unix,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        flush_ms=args.flush_ms,
        default_deadline_ms=args.default_deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        metrics_path=args.metrics_out,
        backend=args.backend,
        workers=args.workers,
    )


async def _serve_self_test(config) -> int:
    """Smoke-test a live ephemeral server with a real client.

    One pass over the contract: ping, a verified solve, a typed
    ProtocolError for garbage, a typed DeadlineExceeded for an
    already-expired deadline, a metrics reply, and a graceful drain.
    """
    from repro.serve import PLRServer, ServeClient

    server = PLRServer(config)
    await server.start()
    checks: list[tuple[str, bool, str]] = []
    try:
        client = await ServeClient.connect(server.address)
        reply = await client.ping(timeout=10)
        checks.append(("ping", bool(reply and reply.get("ok")), repr(reply)))

        values = list(range(1, 33))
        reply = await client.solve("(1: 2, -1)", values, request_id=1, timeout=30)
        expected = serial_full(
            np.asarray(values), Recurrence.parse("(1: 2, -1)").signature
        )
        checks.append(
            (
                "solve (1: 2, -1) n=32",
                bool(reply and reply.get("ok"))
                and reply["output"] == expected.tolist(),
                repr(reply)[:120],
            )
        )

        reply = await client.request({"values": [1, 2]}, timeout=10)
        checks.append(
            (
                "malformed frame -> typed ProtocolError",
                bool(reply) and reply.get("error") == "ProtocolError",
                repr(reply)[:120],
            )
        )

        reply = await client.solve(
            "(1: 1)", [1, 2, 3], deadline_ms=0, request_id=2, timeout=10
        )
        checks.append(
            (
                "expired deadline -> typed DeadlineExceeded",
                bool(reply) and reply.get("error") == "DeadlineExceeded",
                repr(reply)[:120],
            )
        )

        reply = await client.metrics(timeout=10)
        checks.append(
            (
                "metrics reply carries serving stats",
                bool(reply) and "serving" in reply and "metrics" in reply,
                repr(reply)[:120],
            )
        )

        reply = await client.slo(timeout=10)
        slo = reply.get("slo") if reply else None
        checks.append(
            (
                "slo reply carries attainment + burn windows",
                bool(reply and reply.get("ok"))
                and isinstance(slo, dict)
                and slo.get("total", 0) >= 1
                and "error_budget" in slo
                and "windows" in slo,
                repr(reply)[:120],
            )
        )

        reply = await client.drain(timeout=10)
        await asyncio.wait_for(server._drained.wait(), timeout=30)
        checks.append(
            (
                "graceful drain + final snapshot",
                bool(reply and reply.get("ok"))
                and server.final_snapshot is not None,
                repr(reply)[:120],
            )
        )
        await client.close()
    finally:
        await server.aclose()
    failed = 0
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
        failed += 0 if ok else 1
    print(
        f"self-test: {len(checks) - failed}/{len(checks)} checks passed"
        + ("" if not failed else " — FAILED")
    )
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.metrics_out:
        _ensure_writable(args.metrics_out, kind="metrics snapshot")
    if args.self_test:
        # Ephemeral port (or a suffixed Unix path) so a self-test never
        # collides with a real instance.
        if args.unix:
            args.unix = f"{args.unix}.self-test"
        return asyncio.run(_serve_self_test(_serve_config(args, port=0)))

    async def _main() -> dict:
        from repro.serve import PLRServer

        server = PLRServer(_serve_config(args))
        await server.start()
        address = server.address
        where = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
        print(
            f"serving on {where} (JSONL: solve frames + ping/metrics/drain; "
            "SIGTERM drains gracefully)"
        )
        return await server.serve_forever()

    snapshot = asyncio.run(_main())
    counters = snapshot.get("counters", {})
    print(
        "drained: "
        f"{counters.get('serve.admitted', 0):g} admitted, "
        f"{counters.get('serve.flushes', 0):g} flushes, "
        f"{counters.get('serve.shed_overload', 0):g} shed on overload, "
        f"{counters.get('serve.shed_draining', 0):g} shed draining, "
        f"{counters.get('serve.protocol_errors', 0):g} protocol errors"
    )
    if args.metrics_out:
        print(f"wrote {args.metrics_out}")
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "run": _cmd_run,
    "info": _cmd_info,
    "factors": _cmd_factors,
    "figures": _cmd_figures,
    "tables": _cmd_tables,
    "simulate": _cmd_simulate,
    "chaos": _cmd_chaos,
    "calibration": _cmd_calibration,
    "export": _cmd_export,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "batch": _cmd_batch,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "slo": _cmd_slo,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An unreadable input file or unwritable output path is a usage
        # problem, not a bug: one line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
