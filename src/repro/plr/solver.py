"""The end-to-end PLR solver: plan, map stage, Phase 1, Phase 2.

:class:`PLRSolver` is the executable embodiment of the paper's
algorithm on a numpy substrate: the same chunking, the same correction
factors and the same two phases as the generated CUDA code, so it
serves both as the production API for computing recurrences in
parallel form and as the reference for validating the code generators
and the GPU simulator against.  Integer results are exactly the
generated code's: its arithmetic wraps in the same ring.  Float results
agree within Section 5's tolerance, not bit for bit: a CPU Phase 1
solves each 64-word segment of a chunk in one matrix product and joins
the segments with a carry scan (:func:`repro.plr.phase1.segment_solve`),
which associates the sums differently from the merge tree.

Every CPU entry point — :class:`PLRSolver`,
:class:`~repro.batch.BatchSolver`, :func:`~repro.plr.nd.solve_batch`
(and so the batch engine), the streams
(:mod:`repro.plr.streaming`) and
:class:`~repro.resilience.ResilientSolver` — solves through one seam,
:func:`prepare`: it checks the coefficients, resolves ``"auto"``,
plans, looks up the factor table once, and returns a
:class:`PreparedSolve` that dispatches the input to its backend and
degrades a native failure to numpy in one place.

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
from repro.obs.tracer import NULL_TRACER, coerce_tracer
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import FactorPlan, OptimizationConfig, optimize_factors
from repro.parallel.sharding import ShardOptions
# phase1 stays importable here: the benchmark's traced run wraps it by
# attribute on this module.
from repro.plr.phase1 import check_integer_coefficients, phase1  # noqa: F401
from repro.plr.planner import ExecutionPlan, plan_execution
from repro.plr.tiled import packed_starts, solve_tiled

__all__ = [
    "PLRSolver",
    "PreparedSolve",
    "SOLVE_BACKENDS",
    "STATIC_NATIVE_CROSSOVER",
    "SolveArtifacts",
    "cached_factor_table",
    "check_backend",
    "check_batch",
    "clear_factor_cache",
    "factor_cache_stats",
    "plr_solve",
    "prepare",
    "resolve_backend",
]

SOLVE_BACKENDS = ("single", "process", "native", "auto")
"""The backend names :func:`prepare` and every entry point built on it
(:class:`PLRSolver`, :class:`~repro.batch.BatchSolver`,
:func:`~repro.plr.nd.solve_batch`, :class:`~repro.batch.BatchEngine`,
:class:`~repro.resilience.ResilientSolver`,
:class:`~repro.serve.ServeConfig`) accept."""

STATIC_NATIVE_CROSSOVER = 1 << 15
"""The input length from which ``backend="auto"`` runs the native
kernel, when a C compiler is available.  One constant serves every
entry point, though the measured crossover differs between them: a
one-row native solve beats single from 16 words up, while on queues of
short rows the batch engine's per-row kernel calls run level with one
packed numpy pass for an int32 prefix sum and about 2x slower for a
float32 second-order filter (256 rows of 16-1,024 words, 2-vCPU
x86_64)."""


def check_backend(backend: str) -> None:
    """Raise ``ValueError`` unless ``backend`` is one of
    :data:`SOLVE_BACKENDS`."""
    if backend not in SOLVE_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {SOLVE_BACKENDS}"
        )


def resolve_backend(backend: str, n: int) -> str:
    """The backend a solve whose longest row has ``n`` words runs.

    ``"auto"`` becomes ``"native"`` when ``n`` is at least
    :data:`STATIC_NATIVE_CROSSOVER` and a C compiler is available, and
    ``"single"`` otherwise; every other name is returned unchanged.
    """
    if backend != "auto":
        return backend
    from repro.codegen.jit import native_available

    if n >= STATIC_NATIVE_CROSSOVER and native_available():
        return "native"
    return "single"


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
    :func:`cached_factor_table` lookup so the gauges track the cache
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


def check_batch(
    values, signature: Signature, dtype=None
) -> tuple[list[np.ndarray] | np.ndarray, int, int, np.dtype]:
    """Check a batch: a (B, n) array, or a sequence of 1-D rows of any
    lengths.

    Returns the batch (the array, or the rows as a list of arrays), its
    row count, its longest row's length, and the working dtype:
    ``dtype``, else the one the data's dtype resolves to.
    """
    if isinstance(values, (list, tuple)):
        values = [np.asarray(row) for row in values]
        if any(row.ndim != 1 for row in values):
            raise ValueError("expected a sequence of 1D rows")
        n = max((row.size for row in values), default=0)
        source = np.result_type(*{row.dtype for row in values}) if values else np.float32
    else:
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(f"expected a 2D (batch, n) array, got shape {values.shape}")
        n = values.shape[1]
        source = values.dtype
    if dtype is None:
        dtype = resolve_dtype(signature, source)
    return values, len(values), n, np.dtype(dtype)


def _child(context):
    # One fresh child per span; None stays None so the untraced hot path
    # allocates nothing.
    return context.child() if context is not None else None


def prepare(
    recurrence: Recurrence | Signature | str,
    n: int,
    dtype: np.dtype | type,
    backend: str = "single",
    plan: ExecutionPlan | None = None,
    optimization: OptimizationConfig | None = None,
) -> "PreparedSolve":
    """Derive everything a solve needs before it touches the data.

    ``n`` is the input length (a batch's longest row) and ``dtype`` the
    working dtype.  The steps run once, in this order: the
    integer-coefficient check, ``"auto"`` resolution
    (:func:`resolve_backend`), planning for the default machine unless
    ``plan`` is given, and the factor-table lookup
    (:func:`cached_factor_table`).  No kernel is built here, so a
    caller can read ``table.overflow_risk`` before anything compiles.
    """
    recurrence = Recurrence.coerce(recurrence)
    dtype = np.dtype(dtype)
    signature = recurrence.signature
    # A fractional coefficient cast to an integer working dtype
    # truncates silently (b=0.5 -> 0) and computes a *different*
    # recurrence; fail with a typed error before any work happens.
    check_integer_coefficients(signature.feedforward + signature.feedback, dtype)
    backend = resolve_backend(backend, n)
    if plan is None:
        plan = plan_execution(signature, n)
    table = cached_factor_table(recurrence.recursive_signature, plan.chunk_size, dtype)
    return PreparedSolve(recurrence, dtype, backend, plan, table, optimization)


@dataclass(frozen=True)
class PreparedSolve:
    """One solve's plan, factor table and backend, ready to run.

    Built by :func:`prepare`.  Calling it runs ``values`` through
    ``backend`` and returns ``(out, partial, native)``.  ``values`` is
    one of:

    * a 1-D array (the :class:`PLRSolver` case), returning a 1-D array;
    * a (B, n) array of independent rows, returning a (B, n) array;
    * a list of 1-D rows of any lengths, returning a list.  The single
      and process backends solve them as one packed pass.

    The process backend shards a 1-D input's chunks across its pool;
    it runs a (B, n) array or a list in the in-process tiled pass, as
    the single backend does.

    ``partial`` is the Phase 1 result as (chunks, m) when
    ``keep_partial`` is set and the tiled pass ran, else None.
    ``native`` is the native backend's
    :class:`~repro.codegen.jit.NativeAttempt`, else None.  A native
    failure degrades to the single backend here, unless
    ``native_fallback`` is False, in which case the typed error
    propagates.

    ``entering = (carries, inputs)`` resumes every row of a (B, n)
    array after earlier words, with (B, k) carries and (B, p) inputs,
    both most recent first (:func:`~repro.plr.tiled.solve_tiled`); the
    streams pass their boundary state this way.  Only the single
    backend takes it.
    """

    recurrence: Recurrence
    dtype: np.dtype
    backend: str
    plan: ExecutionPlan
    table: CorrectionFactorTable
    optimization: OptimizationConfig | None

    @property
    def factor_plan(self) -> FactorPlan:
        """The optimizer's decisions for ``table``.  Only the native
        kernel and :class:`SolveArtifacts` read them; the table
        memoizes them per config."""
        return optimize_factors(self.table, self.optimization)

    def __call__(
        self,
        values,
        tracer=NULL_TRACER,
        context=None,
        keep_partial: bool = False,
        shard_options: ShardOptions | None = None,
        native_fallback: bool = True,
        entering: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple:
        if entering is not None and self.backend != "single":
            raise ValueError(
                f"an entering state runs on the single backend, not {self.backend!r}"
            )
        if self.backend == "native":
            try:
                return self._native(values, tracer, context)
            except (BackendError, CodegenError) as exc:
                if not native_fallback:
                    raise
                return self._degrade(exc, values, tracer, context, keep_partial)
        one_row = not isinstance(values, list) and values.ndim == 1
        if self.backend == "process" and one_row:
            return self._sharded(values, tracer, context, shard_options), None, None
        return self._tiled(values, tracer, context, keep_partial, entering)

    def _degrade(self, exc, values, tracer, context, keep_partial) -> tuple:
        """The one place a native failure degrades: count it, mark the
        trace, rerun on the single backend, and record why."""
        from repro.codegen.jit import NativeAttempt

        global_metrics().counter("native.fallbacks").inc()
        if tracer.enabled:
            tracer.instant(
                "native_fallback",
                cat="solver",
                args={"error": str(exc)[:200]},
                link=_child(context),
            )
        out, partial, _ = replace(self, backend="single")(
            values, tracer, context, keep_partial
        )
        return out, partial, NativeAttempt(used=False, error=f"{type(exc).__name__}: {exc}")

    def _tiled(self, values, tracer, context, keep_partial, entering=None) -> tuple:
        ff = self.recurrence.signature.feedforward
        m, x = self.plan.chunk_size, self.plan.values_per_thread
        if isinstance(values, list):
            # Rows of any lengths run as one packed row whose carry
            # spine restarts at each row.
            filled = [row for row in values if row.size]
            starts = packed_starts([row.size for row in filled], m)
            out, _ = solve_tiled(
                filled, ff, self.table, x,
                tracer=tracer, context=context, row_starts=starts,
            )
            offsets = iter(starts)
            outputs = []
            for row in values:
                start = next(offsets) * m if row.size else 0
                outputs.append(out[0, start : start + row.size])
            return outputs, None, None
        out, partial = solve_tiled(
            values[None] if values.ndim == 1 else values, ff, self.table, x,
            tracer=tracer, context=context, keep_partial=keep_partial,
            entering=entering,
        )
        if partial is not None:
            partial = partial.reshape(-1, m)
        out = out[:, : values.shape[-1]]
        return (out[0] if values.ndim == 1 else out), partial, None

    def _map_rows(self, values, tracer, context) -> np.ndarray:
        """The whole-row cast and map stage (2) the native and process
        backends start from; the tiled pass maps tile by tile."""
        work = values.astype(self.dtype, copy=False)
        if self.recurrence.has_map_stage:
            with tracer.span("map_stage", cat="solver", link=_child(context)):
                work = self.recurrence.apply_map_stage(work)
        return work

    def _native(self, values, tracer, context) -> tuple:
        """Run each row through one JIT-compiled C kernel, in this process.

        The kernel is fetched once per call and built from the
        *recursive-only* signature with one serial cell spanning each
        chunk (``x = m``): the doubling hierarchy inside a chunk is a GPU
        shape; on a CPU the chunk-serial solve plus the carry spine plus
        the bulk correction is both less work and the layout OpenMP
        parallelizes cleanly.  The kernel pads internally, so the host
        neither maps nor pads twice.  Raises
        :class:`~repro.core.errors.BackendError` /
        :class:`~repro.core.errors.CodegenError` when no kernel can be
        produced.
        """
        from repro.codegen import jit
        from repro.codegen.ir import KernelIR

        kernel = jit.native_kernel(
            KernelIR(
                recurrence=Recurrence(self.recurrence.recursive_signature),
                plan=replace(self.plan, values_per_thread=self.plan.chunk_size),
                table=self.table,
                factor_plan=self.factor_plan,
                dtype=self.dtype,
            )
        )

        def run(row):
            work = self._map_rows(row, tracer, context)
            with tracer.span(
                "native_kernel",
                cat="solver",
                args={"n": row.size, "digest": kernel.digest} if tracer.enabled else None,
                link=_child(context),
            ):
                return kernel(work)

        if isinstance(values, list):
            out = [run(row) if row.size else np.zeros(0, self.dtype) for row in values]
        elif values.ndim == 1:
            out = run(values)
        else:
            out = np.stack([run(row) for row in values])
        record = jit.NativeAttempt(
            used=True, digest=kernel.digest, library_path=str(kernel.library_path)
        )
        return out, None, record

    def _sharded(self, values, tracer, context, shard_options) -> np.ndarray:
        """The process backend on a 1-D input: its chunks shard across
        the pool (:func:`repro.parallel.solve_sharded`)."""
        from repro.parallel.backend import solve_sharded

        n = values.size
        # Zero-pad to whole chunks.  Trailing zeros never influence
        # earlier outputs, so the unpadded prefix is exact.
        padded = np.zeros(self.plan.padded_n, dtype=self.dtype)
        padded[:n] = self._map_rows(values, tracer, context)
        sharded_ctx = _child(context)
        with tracer.span(
            "solve_sharded",
            cat="solver",
            args={"chunks": self.plan.num_chunks} if tracer.enabled else None,
            link=sharded_ctx,
        ):
            # Workers correct their shared slabs in place; no host-side
            # Phase 1 snapshot exists to expose.
            corrected = solve_sharded(
                padded, self.table, self.plan.values_per_thread,
                options=shard_options, tracer=tracer, context=sharded_ctx,
            )
        return corrected.reshape(-1)[:n]


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
        numpy execution does not read it: its integer merges and its
        corrections prune by the factor table's own structure instead —
        each row stops at its exact-zero tail (decay truncation) and
        all-ones rows add their carry without a multiply (constant
        folding) — which never changes a finite result beyond the sign
        of an exact zero.  Float Phase 1 runs as matrix products
        (:func:`repro.plr.phase1.segment_solve`), whose sums associate
        differently from the generated code's merges; a row's bits do
        not depend on which rows share its batch or its tiles.
    tracer:
        Observability hook: ``True`` for a fresh
        :class:`~repro.obs.tracer.Tracer`, an existing tracer to share,
        or ``None``/``False`` (default) for the no-op tracer.  With a
        real tracer every solve emits spans for the map stage, factor
        table lookup, Phase 1 (per segment solve, running sum or merge
        level), and Phase 2 (per-chunk ``lookback`` events).  Tracing never changes the arithmetic —
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
        ``"auto"`` picks ``"native"`` or ``"single"`` per solve from the
        input length (:func:`resolve_backend`); ``artifacts.backend``
        records which ran.
    workers / shard_options:
        Pool tuning for the process backend: ``workers`` is shorthand
        for ``ShardOptions(workers=...)``; pass a full
        :class:`~repro.parallel.ShardOptions` to also set the stage
        timeout.  The single and native backends ignore both: the
        native kernel always runs in this process, already
        OpenMP-parallel over chunks.
    native_fallback:
        Native backend only.  True (default): a
        :class:`~repro.core.errors.BackendError` /
        :class:`~repro.core.errors.CodegenError` from the compile-and-
        load path degrades the solve to numpy instead of failing it
        (:class:`PreparedSolve`, the one degradation path every entry
        point shares).  False: the typed error propagates — what
        ``plr bench``'s native row and the server's warm-up use to see
        the failure.
    """

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
    ) -> None:
        recurrence = Recurrence.coerce(recurrence)
        check_backend(backend)
        self.recurrence = recurrence
        self.machine = machine or MachineSpec.titan_x()
        self.optimization = optimization or OptimizationConfig()
        self.tracer = coerce_tracer(tracer)
        self.backend = backend
        self.native_fallback = native_fallback
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
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"expected a 1D sequence, got shape {values.shape}")
        n = values.size
        if dtype is None:
            dtype = resolve_dtype(self.recurrence.signature, values.dtype)
        if plan is None:
            with tracer.span(
                "plan",
                cat="solver",
                args={"n": n} if tracer.enabled else None,
                link=_child(context),
            ):
                plan = self.plan_for(n)
        with tracer.span("factor_table", cat="solver", link=_child(context)):
            handle = prepare(
                self.recurrence, n, dtype, self.backend, plan, self.optimization
            )
        out, partial, native = handle(
            values, tracer, context, keep_partial,
            self.shard_options, self.native_fallback,
        )
        artifacts = SolveArtifacts(
            plan=plan,
            table=handle.table,
            factor_plan=handle.factor_plan,
            partial=partial,
            native=native,
            backend=handle.backend,
        )
        return out, artifacts


def plr_solve(signature: str | Signature, values: np.ndarray) -> np.ndarray:
    """One-shot convenience: ``plr_solve("(1: 1)", x)`` -> prefix sum."""
    return PLRSolver(signature).solve(values)
