"""The vectorized batch solver: B independent inputs, one pass.

:class:`BatchSolver` is the batch counterpart of
:class:`~repro.plr.solver.PLRSolver`: every row is an independent
sequence with its own zero history, computed under one shared execution
plan and one shared correction-factor table, through the same prepared
solve (:func:`repro.plr.solver.prepare`), which this class wraps with
planning, tracing, and empty-input handling.  It takes either of two
shapes:

* a sequence of 1-D rows of any lengths — the batch engine's shape.
  The rows are packed into one grid of chunks, planned for the longest
  row, and solved in one tiled pass whose carry spine restarts at each
  row.  Every output equals ``PLRSolver.solve(row, plan=plan)`` bit for
  bit, floats included.  Python touches each row a few times (to place
  it, fill it and slice its output), each step a numpy call on the
  whole row;
* a (B, n) array, with no per-row Python at all.  Phase 1 solves all
  (row, chunk) pairs at once and Phase 2's carry spine advances every
  row per chunk step.  Row i equals ``PLRSolver.solve(batch[i])`` under
  the same plan exactly for integer dtypes (wrap-around arithmetic is
  chunking-invariant).  A float row need not: where rows share a tile,
  the spine's (R, k) @ (k, k) product rounds differently from the
  solo solve's matrix-vector product, and growing factors amplify the
  difference.  Float order-2 and order-3 prefix sums differ from their
  solo solves in most words, neither side consistently closer to a
  float64 serial solve; the other Table 1 signatures matched bit for
  bit.  A caller that needs a float row's solo bits passes a list of
  rows.

Both shapes run in this process, on the numpy pass or the native
kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.recurrence import Recurrence
from repro.core.signature import Signature
from repro.obs.tracer import coerce_tracer
from repro.plr.nd import solve_batch
from repro.plr.planner import ExecutionPlan, plan_execution
from repro.plr.solver import check_backend, check_batch, prepare

__all__ = ["BatchSolver"]


class BatchSolver:
    """Computes one recurrence over a batch of rows in a single pass.

    Parameters
    ----------
    recurrence:
        The recurrence (or signature / signature string) every row
        computes.  Rows share one plan, chosen for the longest row on
        the default machine.
    tracer:
        Observability hook (``True`` / a shared tracer / ``None``).
    backend:
        ``"single"`` (default) vectorizes in this process;
        ``"native"`` runs each row through the JIT-compiled C kernel
        (:mod:`repro.codegen.jit` — the kernel is fetched once per
        solve, then called once per row), degrading to the numpy pass
        with a ``native.fallbacks`` count and a ``native_fallback``
        trace instant when no compiler is available or compilation
        fails;
        ``"auto"`` picks ``"native"`` or ``"single"`` per solve from the
        batch's longest row
        (:func:`~repro.plr.solver.resolve_backend`), and that choice
        steers every row, however short.
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        tracer=None,
        backend: str = "single",
    ) -> None:
        recurrence = Recurrence.coerce(recurrence)
        check_backend(backend)
        self.recurrence = recurrence
        self.tracer = coerce_tracer(tracer)
        self.backend = backend

    def plan_for(self, n: int) -> ExecutionPlan:
        """The shared plan for rows of length n (same planner as PLR)."""
        return plan_execution(self.recurrence.signature, n)

    def solve(
        self,
        values,
        plan: ExecutionPlan | None = None,
        dtype: np.dtype | None = None,
    ) -> np.ndarray | list[np.ndarray]:
        """Compute the recurrence over every row of ``values``.

        ``values`` is a (B, n) array, which returns the same shape, or a
        list or tuple of 1-D rows of any lengths, which returns a list
        of outputs planned for the longest row.  No rows, or rows of
        length 0, short-circuit to empty results (the planner cannot —
        and need not — plan a zero-length solve).
        """
        values, rows, n, dtype = check_batch(values, self.recurrence.signature, dtype)
        if rows == 0 or n == 0:
            return solve_batch(values, self.recurrence, dtype=dtype)
        tracer = self.tracer
        if plan is None:
            with tracer.span(
                "plan",
                cat="batch",
                args={"batch": rows, "n": n} if tracer.enabled else None,
            ):
                plan = self.plan_for(n)
        handle = prepare(self.recurrence, n, dtype, self.backend, plan)
        if handle.backend == "native":
            name, args = "batch_native", {"batch": rows}
        else:
            name, args = "batch_solve", {"batch": rows, "n": n, "m": plan.chunk_size}
        with tracer.span(name, cat="batch", args=args if tracer.enabled else None):
            return handle(values, tracer)[0]
