"""Per-layer metrics of the traced run, named after the ``src/repro`` modules.

Spans are recorded from outside: :func:`targets` lists the public
callables the workloads reach, and the traced run wraps each one.
Times ending in ``self_s`` are self time (span minus child spans) in
seconds per round; counts are per round unless their printed base says
otherwise (one traced cold set-up, or one queue execute).
A metric a workload does not exercise reads 0 and the report says why.
"""

from __future__ import annotations

import statistics
import time
from importlib import import_module
from pathlib import Path

import numpy as np

from measure import percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# name -> unit, in report order.
UNIT = {
    "plr.plan.self_s": "s",
    "plr.factor_table.build_s": "s",
    "plr.factor_table.misses": "count",
    "plr.factor_table.hit_ratio": "ratio",
    "plr.map_stage.self_s": "s",
    "plr.phase1.self_s": "s",
    "plr.phase1.words_per_s": "words/s",
    "plr.phase2.spine_s": "s",
    "plr.phase2.correction_s": "s",
    "plr.single.pct_memcpy": "%",
    "plr.single.bytes_moved": "bytes",
    "plr.solver.self_s": "s",
    "plr.stream.push.self_s": "s",
    "codegen.compiles": "count",
    "codegen.compile_s": "s",
    "codegen.kernel.self_s": "s",
    "codegen.kernel.words_per_s": "words/s",
    "codegen.kernel.pct_memcpy": "%",
    "codegen.dispatch_s": "s",
    "codegen.kernel_hits": "count",
    "codegen.fallbacks": "count",
    "parallel.solve_sharded.self_s": "s",
    "parallel.speedup_vs_single": "x",
    "batch.planner.self_s": "s",
    "batch.groups": "count",
    "batch.group_size.mean": "count",
    "batch.stack.self_s": "s",
    "batch.engine.self_s": "s",
    "batch.padding_frac": "ratio",
    "batch.solver.self_s": "s",
    "batch.native_rows.self_s": "s",
    "resilience.isolations": "count",
    "resilience.attempts_per_isolation": "count",
    "resilience.solve_request.self_s": "s",
    "serve.decode_s.n64": "s",
    "serve.decode_s.n4096": "s",
    "serve.decode_s.n32768": "s",
    "serve.encode_s.n64": "s",
    "serve.encode_s.n4096": "s",
    "serve.encode_s.n32768": "s",
    "serve.server_latency_p50_ms": "ms",
    "serve.flushes": "count",
    "serve.batch_occupancy.mean": "count",
    "serve.slo_good_frac": "ratio",
    "serve.shed": "count",
    "serve.generator_late_p99_ms": "ms",
    "baselines.memcpy.words_per_s": "words/s",
    "obs.trace_overhead_frac": "ratio",
    "env.ref_ms": "ms",
    "raw.throughput_wps.single": "words/s",
    "raw.throughput_wps.native": "words/s",
    "raw.throughput_wps.process": "words/s",
}

BASE = {
    "plr.factor_table.hit_ratio": "factor-cache lookups in the traced rounds",
    "plr.single.pct_memcpy": "baselines.memcpy.words_per_s, same run",
    "plr.single.bytes_moved": "COMPUTED, not measured: words x (input + output itemsize)",
    "codegen.kernel.pct_memcpy": "baselines.memcpy.words_per_s, same run",
    "parallel.speedup_vs_single": "single-backend phase1+phase2 time on the same inputs",
    "batch.padding_frac": "true input words; useful share = 1 / (1 + it)",
    "batch.groups": "per BatchEngine.execute of one 256-request queue",
    "resilience.isolations": "per BatchEngine.execute of one 256-request queue",
    "resilience.attempts_per_isolation": "isolated requests",
    "serve.slo_good_frac": "replies in phase (a); 50 ms objective",
    "obs.trace_overhead_frac": "the untraced execution of the same round",
    "plr.factor_table.build_s": "one traced cold set-up",
    "plr.factor_table.misses": "one traced cold set-up",
    "codegen.compiles": "one traced cold set-up",
    "codegen.compile_s": "one traced cold set-up",
}

UNUSED = {
    "long_1d": "not on this workload's path (long_1d calls PLRSolver.solve per backend)",
    "stream_1d": "not on this workload's path (StreamingSolver.push on backend single only)",
    "batch_mixed": "not on this workload's path (BatchEngine.execute, single and native)",
    "serve_mixed": "runs inside the server process, which is not traced from outside",
}

DRAM_WORDS = 1 << 25
"""int32 words of the DRAM-sized memcpy: 128 MiB each way, above the LLC."""


def targets() -> list:
    """The (owner, attribute, span name) triples the traced run wraps."""
    # import_module, not "import a.b as c": the package repro.plr
    # re-exports functions named like its modules (phase2).
    engine = import_module("repro.batch.engine")
    batch_planner = import_module("repro.batch.planner")
    batch_solver = import_module("repro.batch.solver")
    cbackend = import_module("repro.codegen.cbackend")
    jit = import_module("repro.codegen.jit")
    recurrence = import_module("repro.core.recurrence")
    parallel = import_module("repro.parallel.backend")
    nd = import_module("repro.plr.nd")
    phase2 = import_module("repro.plr.phase2")
    solver = import_module("repro.plr.solver")
    streaming = import_module("repro.plr.streaming")

    return [
        (solver, "plan_execution", "plan_execution"),
        (batch_solver, "plan_execution", "plan_execution"),
        (nd, "plan_execution", "plan_execution"),
        (solver, "cached_factor_table", "cached_factor_table"),
        (nd, "cached_factor_table", "cached_factor_table"),
        (streaming, "cached_factor_table", "cached_factor_table"),
        (recurrence.Recurrence, "apply_map_stage", "apply_map_stage"),
        (solver, "phase1", "phase1"),
        (nd, "phase1", "phase1"),
        (phase2, "propagate_carries", "propagate_carries"),
        (phase2, "apply_global_correction", "apply_global_correction"),
        (jit, "native_kernel", "native_kernel"),
        (cbackend.CompiledCKernel, "__call__", "kernel_call"),
        (parallel, "solve_sharded", "solve_sharded"),
        (solver.PLRSolver, "solve", "PLRSolver.solve"),
        (streaming.StreamingSolver, "push", "StreamingSolver.push"),
        (batch_planner.BatchPlanner, "plan", "BatchPlanner.plan"),
        (batch_planner.BatchGroup, "stacked", "BatchGroup.stacked"),
        (batch_solver.BatchSolver, "solve", "BatchSolver.solve"),
        (engine.BatchEngine, "execute", "BatchEngine.execute"),
        (engine, "solve_request", "solve_request"),
    ]


def dram_memcpy_words_per_s(repeats: int = 5) -> float:
    """Median words/s of ``np.copyto`` between two preallocated DRAM-sized arrays."""
    src = np.ones(DRAM_WORDS, dtype=np.int32)
    dst = np.zeros_like(src)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        rates.append(DRAM_WORDS / (time.perf_counter() - start))
    return statistics.median(rates)


def spans_path(args) -> Path:
    return OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"


def _get(spans: dict, name: str, field: str) -> float:
    return spans.get(name, {}).get(field, 0.0)


def in_process_metrics(workload, recorder, setup_layer, traced, counters, raw, refs, overhead) -> dict:
    """Per-layer metrics for long_1d, stream_1d and batch_mixed."""
    rounds = max(1, len(traced))
    all_ranges = [r for result in traced for family in result.ranges.values() for r in family]
    spans = recorder.totals(all_ranges)

    def family_spans(family):
        return recorder.totals([r for result in traced for r in result.ranges.get(family, [])])

    memcpy = (
        statistics.median(workload.memcpy_words_per_s)
        if getattr(workload, "memcpy_words_per_s", None)
        else dram_memcpy_words_per_s()
    )
    raw_single = statistics.median(raw["single"]) if "single" in raw else 0.0
    kernel_s = _get(spans, "kernel_call", "total")
    kernel_wps = _get(spans, "kernel_call", "words") / kernel_s if kernel_s else 0.0
    phase1_s = _get(spans, "phase1", "total")
    single = family_spans("single")
    single_phases = sum(
        _get(single, name, "total")
        for name in ("phase1", "propagate_carries", "apply_global_correction")
    )
    sharded_s = _get(family_spans("process"), "solve_sharded", "total")
    lookups = counters.get("factor_cache.hits", 0) + counters.get("factor_cache.misses", 0)
    engines = list(getattr(workload, "engines", {}))
    requests = sum(counters.get(f"{e}:batch.requests", 0) for e in engines)
    groups = sum(counters.get(f"{e}:batch.groups", 0) for e in engines)
    padded = sum(counters.get(f"{e}:batch.padded_values", 0) for e in engines)
    isolated = sum(counters.get(f"{e}:batch.isolated", 0) for e in engines)
    true_words = sum(result.words.get(e, 0) for result in traced for e in engines)
    executes = sum(len(result.ranges.get(e, [])) for result in traced for e in engines)
    single_words = sum(result.words.get("single", 0) for result in traced) / rounds
    setup_spans = setup_layer["spans"]
    setup_counters = setup_layer["counters"]
    long_1d = workload.name == "long_1d"

    def median_raw(family):
        return statistics.median(raw[family]) if family in raw else 0.0

    return {
        "plr.plan.self_s": _get(spans, "plan_execution", "self") / rounds,
        "plr.factor_table.build_s": _get(setup_spans, "cached_factor_table", "total"),
        "plr.factor_table.misses": setup_counters.get("factor_cache.misses", 0),
        "plr.factor_table.hit_ratio": counters.get("factor_cache.hits", 0) / lookups if lookups else 0.0,
        "plr.map_stage.self_s": _get(spans, "apply_map_stage", "self") / rounds,
        "plr.phase1.self_s": _get(spans, "phase1", "self") / rounds,
        "plr.phase1.words_per_s": _get(spans, "phase1", "words") / phase1_s if phase1_s else 0.0,
        "plr.phase2.spine_s": _get(spans, "propagate_carries", "total") / rounds,
        "plr.phase2.correction_s": _get(spans, "apply_global_correction", "total") / rounds,
        "plr.single.pct_memcpy": 100.0 * raw_single / memcpy if long_1d else 0.0,
        # long_1d's words are 4 bytes, each read once and written once.
        "plr.single.bytes_moved": single_words * 8 if long_1d else 0.0,
        "plr.solver.self_s": _get(spans, "PLRSolver.solve", "self") / rounds,
        "plr.stream.push.self_s": _get(spans, "StreamingSolver.push", "self") / rounds,
        "codegen.compiles": setup_counters.get("native.compiles", 0),
        "codegen.compile_s": _get(setup_spans, "native_kernel", "total"),
        "codegen.kernel.self_s": _get(spans, "kernel_call", "self") / rounds,
        "codegen.kernel.words_per_s": kernel_wps,
        "codegen.kernel.pct_memcpy": 100.0 * kernel_wps / memcpy if long_1d else 0.0,
        "codegen.dispatch_s": (
            recorder.enclosing_total("PLRSolver.solve", "kernel_call", all_ranges) - kernel_s
        ) / rounds,
        "codegen.kernel_hits": counters.get("native.kernel_hits", 0) / rounds,
        "codegen.fallbacks": counters.get("native.fallbacks", 0),
        "parallel.solve_sharded.self_s": _get(spans, "solve_sharded", "self") / rounds,
        "parallel.speedup_vs_single": single_phases / sharded_s if sharded_s else 0.0,
        "batch.planner.self_s": _get(spans, "BatchPlanner.plan", "self") / rounds,
        "batch.groups": groups / executes if executes else 0.0,
        "batch.group_size.mean": requests / groups if groups else 0.0,
        "batch.stack.self_s": _get(spans, "BatchGroup.stacked", "self") / rounds,
        "batch.engine.self_s": _get(spans, "BatchEngine.execute", "self") / rounds,
        "batch.padding_frac": padded / true_words if true_words else 0.0,
        "batch.solver.self_s": _get(family_spans("single"), "BatchSolver.solve", "self") / rounds
        if engines else 0.0,
        "batch.native_rows.self_s": _get(family_spans("native"), "BatchSolver.solve", "self") / rounds
        if engines else 0.0,
        "resilience.isolations": isolated / executes if executes else 0.0,
        "resilience.attempts_per_isolation": recorder.attempts / isolated if isolated else 0.0,
        "resilience.solve_request.self_s": _get(spans, "solve_request", "self") / rounds,
        **{name: 0.0 for name in UNIT if name.startswith("serve.")},
        "baselines.memcpy.words_per_s": memcpy,
        "obs.trace_overhead_frac": statistics.median(overhead) if overhead else 0.0,
        "env.ref_ms": statistics.median(refs),
        "raw.throughput_wps.single": median_raw("single"),
        "raw.throughput_wps.native": median_raw("native"),
        "raw.throughput_wps.process": median_raw("process"),
    }


def serve_metrics(workload, data, late, closed_raw) -> dict:
    """Per-layer metrics for serve_mixed, read from outside the server."""
    codec = workload.codec_timings(data["open"])
    snapshot_a = data["metrics_a"]["metrics"]
    occupancy = snapshot_a["histograms"].get("serve.batch_occupancy", {})
    counters_b = data["metrics_b"]["metrics"]["counters"]
    slo = data["slo_a"]["slo"]
    metrics = {name: 0.0 for name in UNIT}
    metrics.update(
        {
            **{f"serve.decode_s.n{n}": codec.get(f"decode.n{n}", 0.0) for n in workload.SIZES},
            **{f"serve.encode_s.n{n}": codec.get(f"encode.n{n}", 0.0) for n in workload.SIZES},
            "serve.server_latency_p50_ms": data["metrics_a"]["serving"]["latency_ms"]["p50"],
            "serve.flushes": snapshot_a["counters"].get("serve.flushes", 0),
            "serve.batch_occupancy.mean": occupancy["total"] / occupancy["count"]
            if occupancy.get("count")
            else 0.0,
            "serve.slo_good_frac": slo["good"] / slo["total"] if slo["total"] else 0.0,
            "serve.shed": sum(v for k, v in counters_b.items() if k.startswith("serve.shed")),
            "serve.generator_late_p99_ms": 1e3 * percentile(late, 99),
            "baselines.memcpy.words_per_s": dram_memcpy_words_per_s(),
            "env.ref_ms": statistics.median(data["ref_ms"]),
            "raw.throughput_wps.single": statistics.median(closed_raw),
        }
    )
    return metrics


def report(metrics: dict, workload: str) -> None:
    """Print every per-layer metric with its unit, base, or why it reads 0."""
    for name, unit in UNIT.items():
        value = metrics[name]
        note = ""
        if name in BASE:
            note = f"base: {BASE[name]}"
        if value == 0 and not name.startswith(("codegen.fallbacks", "serve.shed")):
            note = UNUSED[workload]
            if name == "obs.trace_overhead_frac" and workload == "serve_mixed":
                note = "no spans on the serve load path: the server is its own process"
        print(f"  {name:<36} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
