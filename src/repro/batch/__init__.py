"""Batched execution: many recurrence requests, few vectorized passes.

A service fronting the PLR solver rarely sees one request at a time —
it sees a queue mixing signatures, dtypes, and lengths.  Solving each
request alone repeats per-call overhead (planning, factor-table lookup,
Python dispatch) that the paper's GPU amortizes across a whole grid.
This package amortizes it the same way on the numpy substrate:

* :class:`~repro.batch.solver.BatchSolver` — independent inputs that
  share a signature solved in one pass.  Ragged rows are packed into
  one grid of chunks whose carry spine restarts at each row, and each
  output equals its solo solve under the batch's plan bit for bit; a
  (B, n) matrix advances every row's spine per chunk step instead;
* :class:`~repro.batch.planner.BatchPlanner` — groups a mixed queue
  into sub-batches keyed by (signature, dtype, the chunk size of each
  request's own plan), so each group builds its correction-factor
  table once via the process-wide LRU cache and runs as one packed
  pass planned for its longest member;
* :class:`~repro.batch.engine.BatchEngine` — the queue front end:
  grouped passes, per-request failure isolation through the resilience
  chain, ``batch.*`` metrics, and per-group trace spans.

The invariant the tests pin: a request served by a single-backend
grouped pass equals what a per-request
:class:`~repro.plr.solver.PLRSolver` produces for it, bit for bit,
floats included — the group's plan has the request's own chunk size.
"""

from repro.batch.engine import BatchEngine, RequestOutcome, execute_batch
from repro.batch.planner import BatchGroup, BatchPlanner, BatchRequest
from repro.batch.solver import BatchSolver

__all__ = [
    "BatchEngine",
    "BatchGroup",
    "BatchPlanner",
    "BatchRequest",
    "BatchSolver",
    "RequestOutcome",
    "execute_batch",
]
