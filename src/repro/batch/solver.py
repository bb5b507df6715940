"""The vectorized batch solver: B independent inputs, one pass.

:class:`BatchSolver` is the (B, n) counterpart of
:class:`~repro.plr.solver.PLRSolver`: every row is an independent
sequence with its own zero history, computed under one shared execution
plan and one shared correction-factor table.  There is no per-request
Python loop anywhere on the path — Phase 1 merges all (row, chunk)
pairs at once and Phase 2's carry spine advances every row per chunk
step (see :func:`repro.plr.nd.solve_batch`, which this class wraps with
planning, tracing, and empty-input handling).

Equivalence contract: for any row, ``BatchSolver.solve(batch)[i]``
equals ``PLRSolver.solve(batch[i])`` under the same plan — exactly for
integer dtypes (wrap-around arithmetic is chunking-invariant), and to
within a few ulps for floats (the spine uses a matrix product where the
single-request path uses a matrix-vector product).
"""

from __future__ import annotations

import numpy as np

from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype
from repro.core.signature import Signature
from repro.gpusim.spec import MachineSpec
from repro.obs.tracer import coerce_tracer
from repro.plr.nd import solve_batch
from repro.plr.planner import ExecutionPlan, plan_execution

__all__ = ["BatchSolver"]


class BatchSolver:
    """Computes one recurrence over a (B, n) batch in a single pass.

    Parameters
    ----------
    recurrence:
        The recurrence (or signature / signature string) every row
        computes.
    machine:
        The GPU whose planning heuristics to follow (default: the
        paper's Titan X) — rows share one plan chosen for the common
        row length.
    tracer:
        Observability hook (``True`` / a shared tracer / ``None``).
    backend:
        ``"single"`` (default) vectorizes in this process;
        ``"process"`` shards the batch axis across a multicore pool —
        rows are independent, so workers need no carry exchange at all
        (see :func:`repro.parallel.solve_batch_sharded`);
        ``"native"`` runs each row through the JIT-compiled C kernel
        (:mod:`repro.codegen.jit` — one compile per (signature, plan,
        dtype), then a dict lookup per row), degrading to the
        vectorized numpy pass with a ``native.fallbacks`` count when no
        compiler is available or compilation fails;
        ``"auto"`` consults the machine's calibration table
        (:mod:`repro.tune`) per solve and dispatches to whichever of
        the above measured fastest for this (signature class, row
        length, dtype), with the static heuristics as the cold-table
        fallback.
    workers / shard_options:
        Process-backend pool tuning, as on
        :class:`~repro.plr.solver.PLRSolver`.
    policy:
        ``backend="auto"`` only: the tuning policy to consult; the
        process-wide default when None.
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        machine: MachineSpec | None = None,
        tracer=None,
        backend: str = "single",
        workers: int | None = None,
        shard_options=None,
        policy=None,
    ) -> None:
        recurrence = Recurrence.coerce(recurrence)
        if backend not in ("single", "process", "native", "auto"):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'single', 'process', "
                f"'native', or 'auto'"
            )
        self.recurrence = recurrence
        self.machine = machine or MachineSpec.titan_x()
        self.tracer = coerce_tracer(tracer)
        self.backend = backend
        self.policy = policy
        self._native_solver = None
        if shard_options is None:
            from repro.parallel.sharding import ShardOptions

            shard_options = ShardOptions(workers=workers)
        self.shard_options = shard_options

    def plan_for(self, n: int) -> ExecutionPlan:
        """The shared plan for rows of length n (same planner as PLR)."""
        return plan_execution(self.recurrence.signature, n, self.machine)

    def solve(
        self,
        values: np.ndarray,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
    ) -> np.ndarray:
        """Compute the recurrence over every row of ``values``.

        ``values`` has shape (B, n); returns the same shape.  B = 0 or
        n = 0 short-circuits to an empty result (the planner cannot —
        and need not — plan a zero-length solve).
        """
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError(
                f"expected a 2D (batch, n) array, got shape {values.shape}"
            )
        rows, n = values.shape
        if dtype is None:
            dtype = resolve_dtype(self.recurrence.signature, values.dtype)
        dtype = np.dtype(dtype)
        if rows == 0 or n == 0:
            return values.astype(dtype)
        backend = self.backend
        if backend == "auto":
            backend = self._resolve_auto(n, dtype)
        if plan is None:
            with self.tracer.span(
                "plan",
                cat="batch",
                args={"batch": rows, "n": n} if self.tracer.enabled else None,
            ):
                plan = self.plan_for(n)
        if backend == "native":
            out = self._solve_native(values, plan, dtype)
            if out is not None:
                return out
        with self.tracer.span(
            "batch_solve",
            cat="batch",
            args={"batch": rows, "n": n, "m": plan.chunk_size}
            if self.tracer.enabled
            else None,
        ):
            return solve_batch(
                values,
                self.recurrence,
                dtype=dtype,
                plan=plan,
                tracer=self.tracer,
                backend="single" if backend == "native" else backend,
                shard_options=self.shard_options,
            )

    def _resolve_auto(self, n: int, dtype) -> str:
        """One tuning decision for the whole batch (rows share a shape).

        The decision is per (signature class, row length, dtype) — the
        grouped pass already guarantees homogeneous rows, so one lookup
        steers every row.  Never raises; a cold table resolves to the
        static heuristics (see :class:`repro.tune.TuningPolicy`).
        """
        from repro.tune.policy import default_policy

        policy = self.policy if self.policy is not None else default_policy()
        decision = policy.decide(self.recurrence.signature, n, dtype)
        if self.tracer.enabled:
            self.tracer.instant(
                "tuning_decision",
                cat="batch",
                args={
                    "backend": decision.backend,
                    "source": decision.source,
                    "reason": decision.reason[:200],
                },
            )
        return decision.backend

    def _solve_native(self, values, plan, dtype):
        """Row loop through the compiled kernel; ``None`` → numpy pass.

        The kernel solves one sequence at a time, so the batch is a
        Python loop over rows — the per-row overhead is one memoized
        cache lookup plus the ctypes call, and the kernel itself is far
        faster than the vectorized pass, so the loop still wins for the
        row lengths the batch engine buckets.  Any typed backend failure
        degrades the whole group to the vectorized numpy pass.
        """
        from repro.core.errors import BackendError, CodegenError
        from repro.obs.metrics import global_metrics
        from repro.plr.solver import PLRSolver

        if self._native_solver is None:
            self._native_solver = PLRSolver(
                self.recurrence,
                machine=self.machine,
                tracer=self.tracer,
                backend="native",
                native_fallback=False,
            )
        try:
            with self.tracer.span(
                "batch_native",
                cat="batch",
                args={"batch": len(values)} if self.tracer.enabled else None,
            ):
                rows = [
                    self._native_solver.solve(row, plan=plan, dtype=dtype)
                    for row in values
                ]
            return np.stack(rows)
        except (BackendError, CodegenError):
            global_metrics().counter("native.fallbacks").inc()
            return None
