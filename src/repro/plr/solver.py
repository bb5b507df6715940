"""The end-to-end PLR solver: plan, map stage, Phase 1, Phase 2.

:class:`PLRSolver` is the executable embodiment of the paper's
algorithm on a numpy substrate.  It computes *exactly* what the
generated CUDA code computes — same chunking, same correction factors,
same arithmetic order — so it serves both as the production API for
computing recurrences in parallel form and as the reference for
validating the code generators and the GPU simulator against.

Typical use::

    from repro import Recurrence, PLRSolver

    rec = Recurrence.parse("(0.2: 0.8)")   # 1-stage low-pass filter
    solver = PLRSolver(rec)
    y = solver.solve(x)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.core.errors import BackendError, CodegenError
from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype
from repro.core.signature import Signature
from repro.gpusim.spec import MachineSpec
from repro.obs.metrics import global_metrics
from repro.obs.tracer import coerce_tracer
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import FactorPlan, OptimizationConfig, optimize_factors
from repro.parallel.sharding import ShardOptions
# phase1 stays importable here: the benchmark's traced run wraps it by
# attribute on this module.
from repro.plr.phase1 import check_integer_coefficients, phase1  # noqa: F401
from repro.plr.planner import ExecutionPlan, plan_execution
from repro.plr.tiled import solve_tiled

__all__ = [
    "PLRSolver",
    "SolveArtifacts",
    "cached_factor_table",
    "clear_factor_cache",
    "factor_cache_stats",
    "plr_solve",
]


@dataclass(frozen=True)
class SolveArtifacts:
    """Intermediate state of one solve, exposed for tests and tooling.

    Attributes
    ----------
    plan:
        The m/x/T execution plan used.
    table:
        The correction-factor table.
    factor_plan:
        The optimizer's realization decisions.
    partial:
        The Phase 1 output (locally correct chunks), shape
        (num_chunks, m).  ``None`` for the process backend, whose
        workers correct their shared-memory slabs in place — there is
        no moment at which an intact full Phase 1 result exists on the
        host — and for solves the native kernel completed end to end.
    native:
        A :class:`~repro.codegen.jit.NativeAttempt` describing what the
        native backend did (ran a compiled kernel, or degraded to numpy
        and why).  ``None`` for the other backends.
    tuning:
        A :class:`~repro.tune.policy.TuningDecision` recording which
        backend ``backend="auto"`` resolved to and *why* (measured,
        interpolated, or static fallback with its typed reason).
        ``None`` when the backend was fixed by the caller.
    backend:
        The backend that actually executed this solve (after any
        ``"auto"`` resolution): ``"single"``, ``"process"``, or
        ``"native"``.
    """

    plan: ExecutionPlan
    table: CorrectionFactorTable
    factor_plan: FactorPlan
    partial: np.ndarray | None
    native: object | None = None
    tuning: object | None = None
    backend: str = "single"


# Factor tables are pure functions of (signature, m, dtype); building
# one for m = 11264 costs ~m python-level steps per carry, so memoize.
#
# Cache-key contract: the key is the exact triple
# ``(recursive_signature, chunk_size, dtype_str)``.  Signatures hash by
# coefficient value (frozen dataclass), so "(1: 2, -1)" and the same
# coefficients built programmatically share an entry; the dtype is keyed
# by its *string* form (``np.dtype(x).str``, e.g. ``"<f4"``) so that
# spelling variants — np.float32, "float32", dtype('float32') — cannot
# create duplicate entries.  Entries hold read-only arrays shared across
# solvers and threads; evicting one (LRU, 64 entries) only costs
# recomputation.  The cache is process-global: long-running services
# sweeping many signatures can reclaim the memory with
# :func:`clear_factor_cache`.
@lru_cache(maxsize=64)
def _cached_table(
    signature: Signature, chunk_size: int, dtype_str: str
) -> CorrectionFactorTable:
    return CorrectionFactorTable.build(signature, chunk_size, np.dtype(dtype_str))


def cached_factor_table(
    signature: Signature, chunk_size: int, dtype: np.dtype | type
) -> CorrectionFactorTable:
    """The shared, process-wide factor-table lookup.

    Every consumer of correction factors — :class:`PLRSolver`, the
    streaming wrapper, and the batch engine — goes through this one
    LRU-cached entry point, so a mixed workload touching the same
    (recursive signature, chunk size, dtype) triple builds its table
    exactly once.  The ``signature`` is reduced to its recursive part
    here, so full signatures and their ``(1: b...)`` cores share an
    entry.  Publishes hit/miss/size gauges via
    :func:`factor_cache_stats` on every call.
    """
    table = _cached_table(
        signature.recursive_part(), chunk_size, np.dtype(dtype).str
    )
    factor_cache_stats()
    return table


def clear_factor_cache() -> None:
    """Drop every memoized correction-factor table.

    Tables are immutable and derived purely from their cache key, so
    clearing is always safe — the next solve just rebuilds what it
    needs.  Useful for bounding memory in services that touch many
    (signature, chunk size, dtype) combinations, and for tests that
    measure cold-cache behaviour.
    """
    _cached_table.cache_clear()


def factor_cache_stats() -> dict[str, int]:
    """Current factor-cache statistics, mirrored into the global metrics.

    Reads ``_cached_table.cache_info()`` and publishes it as the
    ``factor_cache.hits`` / ``factor_cache.misses`` / ``factor_cache.size``
    gauges on :func:`repro.obs.metrics.global_metrics`, returning the
    same numbers as a plain dict.  Called on every
    :meth:`PLRSolver.factor_table` lookup so the gauges track the cache
    without replacing the ``lru_cache`` interface tests rely on.
    """
    info = _cached_table.cache_info()
    stats = {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "max_size": info.maxsize,
    }
    registry = global_metrics()
    registry.gauge("factor_cache.hits").set(info.hits)
    registry.gauge("factor_cache.misses").set(info.misses)
    registry.gauge("factor_cache.size").set(info.currsize)
    return stats


class PLRSolver:
    """Computes a linear recurrence with the paper's two-phase algorithm.

    Parameters
    ----------
    recurrence:
        The recurrence to compute (a :class:`Recurrence` or a signature
        string).
    machine:
        The GPU whose planning heuristics to follow; defaults to the
        paper's Titan X.
    optimization:
        Which Section 3.1 optimizations the generated code and the cost
        model apply; the resulting plan lands on
        ``artifacts.factor_plan``.  Defaults to all-on, like PLR.  The
        numpy execution does not read it: its merges and corrections
        prune by the factor table's own structure instead — each row
        stops at its exact-zero tail (decay truncation) and all-ones
        rows add their carry without a multiply (constant folding) —
        which never changes a finite result beyond the sign of an exact
        zero.
    tracer:
        Observability hook: ``True`` for a fresh
        :class:`~repro.obs.tracer.Tracer`, an existing tracer to share,
        or ``None``/``False`` (default) for the no-op tracer.  With a
        real tracer every solve emits spans for the map stage, factor
        table lookup, Phase 1 (per merge level), and Phase 2 (per-chunk
        ``lookback`` events).  Tracing never changes the arithmetic —
        outputs are bit-identical with it on or off.
    backend:
        ``"single"`` (default) computes in this process;
        ``"process"`` shards chunks across a multicore pool with a
        log-depth carry scan (:mod:`repro.parallel`).  Process-backend
        results are bit-identical for integer dtypes and within normal
        rounding for floats (sums reassociate at slab boundaries).
        ``"native"`` JIT-compiles the recurrence with the C backend
        (:mod:`repro.codegen.jit`) and runs the compiled kernel —
        bit-identical for integer dtypes (the kernel is built with
        ``-fwrapv`` so wraparound matches numpy's ring), tolerance-equal
        for floats (the kernel associates chunk-locally).  When no C
        compiler is available or compilation fails, the solve degrades
        to the numpy path and records the typed error on
        ``artifacts.native`` (see ``native_fallback``).
    workers / shard_options:
        Pool tuning for the process backend: ``workers`` is shorthand
        for ``ShardOptions(workers=...)``; pass a full
        :class:`~repro.parallel.ShardOptions` to also set the stage
        timeout.  The native backend runs in-process by default (the
        kernel is already OpenMP-parallel over chunks); setting
        ``workers`` explicitly makes it shard slabs across a pool with
        each worker running the compiled kernel on its slab, the carry
        scan unchanged.  Both are ignored by the single backend.
    native_fallback:
        Native backend only.  True (default): a
        :class:`~repro.core.errors.BackendError` /
        :class:`~repro.core.errors.CodegenError` from the compile-and-
        load path degrades the solve to numpy instead of failing it.
        False: the typed error propagates — what the resilience chain
        uses so the degradation is *its* decision and gets a typed
        attempt record.
    policy:
        ``backend="auto"`` only: the
        :class:`~repro.tune.policy.TuningPolicy` consulted per solve;
        defaults to the process-wide policy over the persistent
        calibration database (:func:`repro.tune.default_policy`).  The
        decision — and why it was made — lands on
        ``artifacts.tuning``; a cold or broken table degrades to the
        static heuristics, never to an exception.
    """

    BACKENDS = ("single", "process", "native", "auto")

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        machine: MachineSpec | None = None,
        optimization: OptimizationConfig | None = None,
        tracer=None,
        backend: str = "single",
        workers: int | None = None,
        shard_options: ShardOptions | None = None,
        native_fallback: bool = True,
        policy=None,
    ) -> None:
        if isinstance(recurrence, str):
            recurrence = Recurrence.parse(recurrence)
        elif isinstance(recurrence, Signature):
            recurrence = Recurrence(recurrence)
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        self.recurrence = recurrence
        self.machine = machine or MachineSpec.titan_x()
        self.optimization = optimization or OptimizationConfig()
        self.tracer = coerce_tracer(tracer)
        self.backend = backend
        self.native_fallback = native_fallback
        self.policy = policy
        self.shard_options = (
            shard_options
            if shard_options is not None
            else ShardOptions(workers=workers)
        )

    # ------------------------------------------------------------------
    def plan_for(self, n: int) -> ExecutionPlan:
        """The execution plan PLR would choose for an input of length n."""
        return plan_execution(self.recurrence.signature, n, self.machine)

    def factor_table(self, plan: ExecutionPlan, dtype: np.dtype) -> CorrectionFactorTable:
        return cached_factor_table(
            self.recurrence.recursive_signature, plan.chunk_size, dtype
        )

    # ------------------------------------------------------------------
    def solve(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
        context=None,
    ) -> np.ndarray:
        """Compute the recurrence over ``values``.

        Returns an array of the same length; dtype follows the paper's
        methodology (int32 for integer signatures on integer data,
        float32 otherwise) unless overridden.  ``context`` is an
        optional :class:`~repro.obs.context.TraceContext`: when given,
        the solve's spans (plan, phases, sharded stages, worker lanes)
        parent under it so the solve joins a request-scoped trace.
        """
        return self._solve(values, plan, dtype, keep_partial=False, context=context)[0]

    def solve_with_artifacts(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
        context=None,
    ) -> tuple[np.ndarray, SolveArtifacts]:
        """Like :meth:`solve` but also returns the intermediate state.

        Keeping ``artifacts.partial`` valid means copying each tile's
        Phase 1 result aside before Phase 2 corrects it, so this entry
        point pays one extra (num_chunks, m) allocation that
        :meth:`solve` avoids.
        """
        return self._solve(values, plan, dtype, keep_partial=True, context=context)

    def _solve(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None,
        dtype: np.dtype | None,
        keep_partial: bool,
        context=None,
    ) -> tuple[np.ndarray, SolveArtifacts]:
        tracer = self.tracer

        def link():
            # One fresh child per span; None stays None so the untraced
            # hot path allocates nothing.
            return context.child() if context is not None else None

        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"expected a 1D sequence, got shape {values.shape}")
        n = values.size
        if dtype is None:
            dtype = resolve_dtype(self.recurrence.signature, values.dtype)
        dtype = np.dtype(dtype)

        backend = self.backend
        shard_options = self.shard_options
        tuning = None
        if backend == "auto":
            backend, shard_options, tuning = self._resolve_auto(
                n, dtype, tracer, link
            )

        if plan is None:
            with tracer.span(
                "plan",
                cat="solver",
                args={"n": n} if tracer.enabled else None,
                link=link(),
            ):
                plan = self.plan_for(n)
        # A fractional coefficient cast to an integer working dtype
        # truncates silently (b=0.5 -> 0) and computes a *different*
        # recurrence; fail with a typed error before any work happens.
        check_integer_coefficients(
            self.recurrence.signature.feedforward
            + self.recurrence.signature.feedback,
            dtype,
        )

        with tracer.span("factor_table", cat="solver", link=link()):
            table = self.factor_table(plan, dtype)
        factor_plan = optimize_factors(table, self.optimization)

        native_record = None
        if backend == "native":
            try:
                out, native_record = self._solve_native(
                    self._mapped(values, dtype, tracer, link),
                    n, plan, table, factor_plan, dtype, tracer, link,
                    shard_options,
                )
            except (BackendError, CodegenError) as exc:
                if not self.native_fallback:
                    raise
                # Degrade to the numpy path below; the typed record on
                # the artifacts (and the counter/instant) is the story.
                from repro.codegen.jit import NativeAttempt

                native_record = NativeAttempt(
                    used=False, error=f"{type(exc).__name__}: {exc}"
                )
                global_metrics().counter("native.fallbacks").inc()
                if tracer.enabled:
                    tracer.instant(
                        "native_fallback",
                        cat="solver",
                        args={"error": str(exc)[:200]},
                        link=link(),
                    )
            else:
                artifacts = SolveArtifacts(
                    plan=plan,
                    table=table,
                    factor_plan=factor_plan,
                    partial=None,
                    native=native_record,
                    tuning=tuning,
                    backend="native",
                )
                return out, artifacts

        partial: np.ndarray | None = None
        if backend == "process":
            from repro.parallel.backend import solve_sharded

            # Zero-pad to a whole number of chunks.  Trailing zeros never
            # influence earlier outputs, so the unpadded prefix is exact.
            padded = np.zeros(plan.padded_n, dtype=dtype)
            padded[:n] = self._mapped(values, dtype, tracer, link)
            sharded_ctx = link()
            with tracer.span(
                "solve_sharded",
                cat="solver",
                args={"chunks": plan.num_chunks} if tracer.enabled else None,
                link=sharded_ctx,
            ):
                # Workers correct their shared slabs in place; no
                # host-side Phase 1 snapshot exists to expose.
                corrected = solve_sharded(
                    padded,
                    table,
                    plan.values_per_thread,
                    options=shard_options,
                    tracer=tracer,
                    context=sharded_ctx,
                )
        else:
            corrected, partial = solve_tiled(
                values.reshape(1, n),
                self.recurrence.signature.feedforward,
                table,
                plan.values_per_thread,
                tracer=tracer,
                context=context,
                keep_partial=keep_partial,
            )
            if partial is not None:
                partial = partial.reshape(-1, plan.chunk_size)

        out = corrected.reshape(-1)[:n]
        artifacts = SolveArtifacts(
            plan=plan,
            table=table,
            factor_plan=factor_plan,
            partial=partial,
            native=native_record,
            tuning=tuning,
            backend=backend,
        )
        return out, artifacts

    def _mapped(self, values, dtype, tracer, link) -> np.ndarray:
        """The whole-array cast and map stage (2) the native and process
        backends start from; the single backend maps tile by tile."""
        work = values.astype(dtype, copy=False)
        if self.recurrence.has_map_stage:
            with tracer.span("map_stage", cat="solver", link=link()):
                work = self.recurrence.apply_map_stage(work)
        return work

    def _resolve_auto(self, n, dtype, tracer, link):
        """Resolve ``backend="auto"`` through the tuning policy.

        Returns ``(backend, shard_options, decision)``.  The policy's
        contract guarantees a decision (measured, interpolated, or
        static fallback with a typed reason) — this never raises on the
        solve path.  A measured process decision also carries the
        measured-best worker count, which fills a ``workers=None``
        shard configuration without overriding an explicit one.
        """
        from dataclasses import replace as dc_replace

        from repro.tune.policy import default_policy

        policy = self.policy if self.policy is not None else default_policy()
        decision = policy.decide(self.recurrence.signature, n, dtype)
        shard_options = self.shard_options
        if (
            decision.backend == "process"
            and decision.workers is not None
            and shard_options.workers is None
        ):
            shard_options = dc_replace(shard_options, workers=decision.workers)
        if tracer.enabled:
            tracer.instant(
                "tuning_decision",
                cat="solver",
                args={
                    "backend": decision.backend,
                    "source": decision.source,
                    "reason": decision.reason[:200],
                },
                link=link(),
            )
        return decision.backend, shard_options, decision

    def _solve_native(
        self, work, n, plan, table, factor_plan, dtype, tracer, link,
        shard_options=None,
    ):
        """Run the solve through a JIT-compiled C kernel.

        ``work`` is the post-map-stage, unpadded input.  The kernel is
        built from the *recursive-only* signature with one serial cell
        spanning each chunk (``x = m``) — the doubling hierarchy inside
        a chunk is a GPU shape; on a CPU the chunk-serial solve plus the
        carry spine plus the bulk correction is both less work and the
        layout OpenMP parallelizes cleanly.  The kernel pads internally,
        so the host neither maps nor pads twice.

        Raises :class:`~repro.core.errors.BackendError` /
        :class:`~repro.core.errors.CodegenError` when a kernel cannot be
        produced; the caller decides whether that degrades or fails.
        """
        from repro.codegen.ir import KernelIR
        from repro.codegen.jit import NativeAttempt, native_kernel

        ir = KernelIR(
            recurrence=Recurrence(self.recurrence.recursive_signature),
            plan=replace(plan, values_per_thread=plan.chunk_size),
            table=table,
            factor_plan=factor_plan,
            dtype=dtype,
        )
        kernel = native_kernel(ir)
        if shard_options is None:
            shard_options = self.shard_options

        # Sharding is opt-in for the native backend: the kernel already
        # parallelizes over chunks with OpenMP, so a process pool on top
        # would oversubscribe unless the caller asked for it.
        if shard_options.workers is not None:
            from repro.parallel.backend import solve_sharded
            from repro.parallel.sharding import resolve_workers, slab_spans

            m = plan.chunk_size
            num_chunks = plan.padded_n // m
            spans = slab_spans(
                num_chunks, resolve_workers(shard_options.workers, num_chunks)
            )
            if len(spans) > 1:
                padded = np.zeros(plan.padded_n, dtype=dtype)
                padded[:n] = work
                sharded_ctx = link()
                with tracer.span(
                    "solve_sharded",
                    cat="solver",
                    args={"chunks": num_chunks, "native": True}
                    if tracer.enabled
                    else None,
                    link=sharded_ctx,
                ):
                    corrected = solve_sharded(
                        padded,
                        table,
                        plan.values_per_thread,
                        options=shard_options,
                        tracer=tracer,
                        context=sharded_ctx,
                        native_so=str(kernel.library_path),
                    )
                record = NativeAttempt(
                    used=True,
                    digest=kernel.digest,
                    library_path=str(kernel.library_path),
                    sharded=True,
                )
                return corrected.reshape(-1)[:n], record

        with tracer.span(
            "native_kernel",
            cat="solver",
            args={"n": n, "digest": kernel.digest} if tracer.enabled else None,
            link=link(),
        ):
            out = kernel(work)
        record = NativeAttempt(
            used=True, digest=kernel.digest, library_path=str(kernel.library_path)
        )
        return out, record


def plr_solve(signature: str | Signature, values: np.ndarray) -> np.ndarray:
    """One-shot convenience: ``plr_solve("(1: 1)", x)`` -> prefix sum."""
    return PLRSolver(Recurrence(Signature.parse(signature)) if isinstance(signature, str) else Recurrence(signature)).solve(values)
