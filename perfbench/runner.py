"""Run one workload: set-up, rounds, checks, metrics and the report.

End-to-end metrics come only from the untraced run (``--trace 0``).
The traced run (``--trace 1``) alternates each round untraced and
traced on the same inputs, takes per-layer figures from the traced
executions and the tracing overhead from the pair.
"""

from __future__ import annotations

import statistics
import time

from repro.obs import global_metrics
from repro.plr.solver import factor_cache_stats
from repro.tune.fingerprint import machine_fingerprint

import layers
from measure import SpanRecorder, percentile, ref_kernel_ms, self_peak_rss_mb, spawn_ref_ms, summary
from serve_load import ServeMixed
from workloads import IN_PROCESS, RoundResult, cold_setup

SETUPS = {"long_1d": 5, "stream_1d": 9, "batch_mixed": 3}
# The drift reference each workload's throughput is scaled by: the
# interpreter-bound reference kernel for short-call work, the same-run
# DRAM memcpy for long_1d, whose solves move with memory bandwidth.  The
# in-process workloads time it around every timed call (RoundResult.add).
DRIFT = {"long_1d": "memcpy", "stream_1d": "ref", "batch_mixed": "ref", "serve_mixed": "ref"}
# The reference each set-up time is scaled by: starting a bare interpreter
# where set-up is a dozen native compiles or a server spawn, the
# reference kernel elsewhere.  On a 2-vCPU box the ten-seed spread of
# set-up was 0.07-0.12 by the interpreter start against 0.10-0.26 by the
# kernel on batch_mixed and serve_mixed; on long_1d (two compiles, two
# large tables) it was 0.07-0.18 by either, so long_1d keeps the kernel.
SETUP_REF = {"long_1d": "ref", "stream_1d": "ref", "batch_mixed": "spawn", "serve_mixed": "spawn"}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _print_stat(name: str, stats: dict, unit: str, what: str = "") -> None:
    print(
        f"  {name:<34} {stats['median']:.6g} {unit}"
        f"  (n={stats['n']} {what} q1={stats['q1']:.6g} q3={stats['q3']:.6g})"
    )


def _header(args, nproc: int, config: dict, caches: dict, sizes: dict) -> None:
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"  machine {machine_fingerprint()} nproc {nproc} caches {caches}")
    print(f"  sizes {sizes}")
    record = config["workloads"][args.workload]
    print(f"  stresses {record['stresses']}; bypasses {record['bypasses']}")


def _counters(workload) -> dict:
    """Flat counter snapshot: global metrics, factor cache, engine metrics."""
    out = dict(global_metrics().snapshot()["counters"])
    stats = factor_cache_stats()
    out["factor_cache.hits"] = stats["hits"]
    out["factor_cache.misses"] = stats["misses"]
    for backend, engine in getattr(workload, "engines", {}).items():
        for key, value in engine.metrics.snapshot()["counters"].items():
            out[f"{backend}:{key}"] = value
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _add(total: dict, delta: dict) -> None:
    for k, v in delta.items():
        total[k] = total.get(k, 0) + v


def _throughputs(rounds, nominal_speed: float) -> tuple[dict, dict]:
    """Per family: raw words/s per round, and the same at nominal speed.

    Each call is scaled by the drift reference's speed timed around it,
    over the nominal speed, so drift within a round is tracked too.
    """
    raw: dict[str, list] = {}
    nominal: dict[str, list] = {}
    for result in rounds:
        for family, seconds in result.seconds.items():
            words = result.words[family]
            raw.setdefault(family, []).append(words / seconds)
            nominal_seconds = result.speed_seconds[family] / nominal_speed
            nominal.setdefault(family, []).append(words / nominal_seconds)
    return raw, nominal


def _setup_ref(workload: str, config: dict) -> tuple:
    """The workload's set-up reference: (timing function, nominal ms)."""
    if SETUP_REF[workload] == "spawn":
        return spawn_ref_ms, config["nominal_spawn_ms"]
    return ref_kernel_ms, config["nominal_ref_ms"]


def _setup_summary(setups, refs, nominal_ms: float) -> dict:
    """Set-up times at nominal speed: scaled by the median reference
    timed before the set-ups (one sample per set-up is too jittery)."""
    scale = nominal_ms / statistics.median(refs)
    return summary([seconds * scale for seconds in setups])


def _peak_rss_mb(workload) -> float:
    """This process's peak RSS less the memory the workload itself holds
    resident for the whole run (long_1d's memcpy buffer)."""
    return self_peak_rss_mb() - getattr(workload, "own_mib", 0.0)


def _tally(rounds) -> dict:
    out = {"attempted": 0, "failed": 0, "mismatches": 0, "errors": []}
    for result in rounds:
        out["attempted"] += result.attempted
        out["failed"] += result.failed
        out["mismatches"] += result.mismatches
        out["errors"].extend(result.errors[: 5 - len(out["errors"])])
    return out


def _result(tally: dict, metrics: dict) -> dict:
    print(
        f"  failed_frac {tally['failed'] / max(1, tally['attempted']):.6g} fraction"
        f"  ({tally['failed']} of {tally['attempted']} operations;"
        f" {tally['mismatches']} output mismatches)"
    )
    for error in tally["errors"]:
        print(f"  failure: {error}")
    return {
        "correct": tally["mismatches"] == 0,
        "attempted": max(1, tally["attempted"]),
        "failed": tally["failed"],
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
def run_workload(args, run_dir, env, nproc, config, caches) -> dict:
    if args.workload == "serve_mixed":
        return _run_serve(args, run_dir, env, nproc, config, caches)
    return _run_in_process(args, run_dir, nproc, config, caches)


def _run_in_process(args, run_dir, nproc, config, caches) -> dict:
    workload = IN_PROCESS[args.workload](args.seed, nproc)
    _header(args, nproc, config, caches, workload.sizes)
    keys = workload.setup_keys()
    recorder = SpanRecorder()
    nominal_ms = config["nominal_ref_ms"]
    by_memcpy = DRIFT[args.workload] == "memcpy"

    setup_ref, setup_nominal_ms = _setup_ref(args.workload, config)
    setups, setup_refs = [], []
    for i in range(SETUPS[args.workload]):
        setup_refs.append(setup_ref())
        setups.append(cold_setup(keys, run_dir / f"cgen{i}"))
    setup_layer = None
    if args.trace:
        recorder.install(layers.targets())
        before = _counters(workload)
        since = recorder.mark()
        cold_setup(keys, run_dir / "cgen-traced")
        setup_layer = {
            "spans": recorder.totals([(since, recorder.mark())]),
            "counters": _delta(_counters(workload), before),
        }
        # Clearing the factor cache resets its statistics: what it reads
        # now is what this set-up did.
        setup_layer["counters"]["factor_cache.misses"] = factor_cache_stats()["misses"]
        recorder.uninstall()
    warm = RoundResult()
    peak = None
    for i in range(getattr(workload, "warmup_rounds", 1)):
        warm = workload.round(i, recorder)
        # Peak RSS through set-up and one full round: the footprint the
        # workload needs.  Later rounds only add allocator history, which
        # grows with however many rounds the box had time for.
        peak = _peak_rss_mb(workload)

    fallbacks_before = _counters(workload).get("native.fallbacks", 0)
    rounds: list[RoundResult] = []
    traced: list[RoundResult] = []
    refs: list[float] = []
    overhead: list[float] = []
    traced_counters: dict = {}
    start = time.perf_counter()
    last_wall = 0.0
    index = 0
    # Start another round only if it should end within --seconds.
    while len(rounds) < workload.min_rounds or (
        time.perf_counter() - start + last_wall <= args.seconds
    ):
        round_start = time.perf_counter()
        refs.append(ref_kernel_ms())
        if not args.trace:
            rounds.append(workload.round(index, recorder))
        else:
            # Same round inputs untraced and traced, alternating which goes first.
            pair = {}
            for mode in ((False, True) if index % 2 == 0 else (True, False)):
                if mode:
                    recorder.install(layers.targets())
                    before = _counters(workload)
                pair[mode] = workload.round(index, recorder)
                if mode:
                    recorder.uninstall()
                    _add(traced_counters, _delta(_counters(workload), before))
            rounds.append(pair[False])
            traced.append(pair[True])
            overhead.append(pair[True].total_seconds / pair[False].total_seconds - 1.0)
        last_wall = time.perf_counter() - round_start
        if peak is None:
            peak = _peak_rss_mb(workload)
        index += 1
    measured_s = time.perf_counter() - start

    tally = _tally([warm] + rounds + traced)
    # A native solve that silently ran numpy would pass its check but
    # measure the wrong backend: count each fallback as a failure.
    fallbacks = _counters(workload).get("native.fallbacks", 0) - fallbacks_before
    if fallbacks:
        tally["failed"] += fallbacks
        tally["errors"].append(f"{fallbacks} native solves fell back to numpy")
    nominal_speed = config["nominal_memcpy_words_per_s"] if by_memcpy else 1.0 / nominal_ms
    raw, nominal = _throughputs(rounds, nominal_speed)
    print(f"  rounds {len(rounds)} in {measured_s:.1f} s")
    if args.trace:
        metrics = layers.in_process_metrics(
            workload, recorder, setup_layer, traced, traced_counters, raw, refs, overhead,
        )
        layers.report(metrics, args.workload)
        recorder.dump(layers.spans_path(args))
        return _result(tally, {k: _metric(v, layers.UNIT[k]) for k, v in metrics.items()})

    setup = _setup_summary(setups, setup_refs, setup_nominal_ms)
    _print_stat("setup_s", setup, "s", f"cold set-ups, at nominal speed by {SETUP_REF[args.workload]}")
    _print_stat("env.setup_ref_ms", summary(setup_refs), "ms", "before each set-up")
    print(
        f"  peak_rss_mb                        {peak:.6g} MiB  (n=1 benchmark process,"
        f" through set-up and the first round, less {getattr(workload, 'own_mib', 0.0):g} MiB"
        f" of benchmark buffers; {_peak_rss_mb(workload):.6g} MiB at the end)"
    )
    label = f"rounds, at nominal speed by {'DRAM memcpy' if by_memcpy else 'env.ref_ms'}"
    for family in sorted(nominal):
        _print_stat(f"throughput_wps.{family}", summary(nominal[family]), "words/s", label)
        _print_stat(f"raw.throughput_wps.{family}", summary(raw[family]), "words/s", "rounds")
    if getattr(workload, "memcpy_words_per_s", None):
        memcpy = summary(workload.memcpy_words_per_s)
        _print_stat("baselines.memcpy.words_per_s", memcpy, "words/s", "rounds, DRAM-sized")
        for family in sorted(raw):
            pct = 100.0 * statistics.median(raw[family]) / memcpy["median"]
            print(f"  pct_memcpy.{family:<23} {pct:.4g} %  (base: same-run memcpy median)")
    _print_stat("env.ref_ms", summary(refs), "ms", "rounds")
    metrics = {
        "setup_s": _metric(setup["median"], "s"),
        "peak_rss_mb": _metric(peak, "MiB"),
        "throughput_wps.single": _metric(statistics.median(nominal["single"]), "words/s"),
    }
    return _result(tally, metrics)


# ----------------------------------------------------------------------
def _run_serve(args, run_dir, env, nproc, config, caches) -> dict:
    workload = ServeMixed(args.seed, layers.ROOT, run_dir, env)
    _header(args, nproc, config, caches, workload.sizes)
    nominal_ms = config["nominal_ref_ms"]
    setup_ref, setup_nominal_ms = _setup_ref(args.workload, config)
    setups, setup_refs = [], []
    try:
        for i in range(workload.SPAWNS):
            setup_refs.append(setup_ref())
            setups.append(workload.spawn(i))
            if i < workload.SPAWNS - 1:
                workload.stop()
        data = workload.run(args.seconds)
    finally:
        peak = workload.stop()
    tally = {"attempted": 0, "failed": 0, "timeouts": 0, "errors": 0, "mismatches": 0, "messages": []}
    latencies = workload.check(data["open"], tally)
    closed_raw = []
    for phase in data["closed"]:
        workload.check(phase, tally)
        closed_raw.append(workload.words_of(phase) / phase["seconds"])
    # ref_ms[0] precedes the open loop; ref_ms[i + 1] and ref_ms[i + 2]
    # are timed just before and just after closed round i.
    refs = data["ref_ms"]
    closed_nominal = [
        v * (before + after) / 2 / nominal_ms for v, before, after in zip(closed_raw, refs[1:], refs[2:])
    ]
    ok_ms = [1e3 * v for v in latencies if v is not None]
    # A failed request misses every latency limit: rank it as infinite.
    ranked = ok_ms + [float("inf")] * (len(latencies) - len(ok_ms))
    p50 = percentile(ranked, 50) if ranked else float("nan")
    p99 = percentile(ranked, 99) if ranked else float("nan")
    beyond = sum(1 for v in ranked if v > p99)
    late = data["open"]["late"]
    tally["errors"] = tally.pop("messages")

    if args.trace:
        metrics = layers.serve_metrics(workload, data, late, closed_raw)
        layers.report(metrics, args.workload)
        return _result(tally, {k: _metric(v, layers.UNIT[k]) for k, v in metrics.items()})

    setup = _setup_summary(setups, setup_refs, setup_nominal_ms)
    _print_stat("setup_s", setup, "s", "server spawns to first ping, at nominal speed by spawn")
    _print_stat("env.setup_ref_ms", summary(setup_refs), "ms", "before each set-up")
    print(f"  peak_rss_mb                        {peak:.6g} MiB  (n=1 server process)")
    print(
        f"  latency_p50_ms                     {p50:.6g} ms  (n={len(ranked)} requests, open loop"
        f" {workload.RATE_RPS:g} rps)"
    )
    print(f"  latency_p99_ms                     {p99:.6g} ms  (n={len(ranked)}; {beyond} samples beyond it)")
    late_p99 = 1e3 * percentile(late, 99)
    validity = "valid: under half of latency_p50_ms" if late_p99 < p50 / 2 else "INVALID: generator ran late"
    print(f"  serve.generator_late_p99_ms        {late_p99:.6g} ms  (n={len(late)}; {validity})")
    _print_stat("throughput_wps.single", summary(closed_nominal), "words/s",
                f"closed-loop rounds of {workload.ROUND_REQUESTS} requests, window {workload.WINDOW}, at nominal speed")
    _print_stat("raw.throughput_wps.single", summary(closed_raw), "words/s", "rounds")
    _print_stat("env.ref_ms", summary(data["ref_ms"]), "ms", "samples")
    metrics = {
        "setup_s": _metric(setup["median"], "s"),
        "peak_rss_mb": _metric(peak, "MiB"),
        "throughput_wps.single": _metric(statistics.median(closed_nominal), "words/s"),
    }
    return _result(tally, metrics)
