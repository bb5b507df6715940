"""Multicore sharded execution backend (the hierarchy's grid level).

Public surface:

* :class:`~repro.parallel.sharding.ShardOptions` — pool size, timeout,
  and test-only fault injection.
* :func:`~repro.parallel.backend.solve_sharded` — run Phase 1 and
  Phase 2 of one 1-D input across a process pool over shared memory,
  combining per-slab carry summaries with a Blelloch log-depth affine
  scan.
* :func:`~repro.parallel.scan.exclusive_affine_scan` and friends — the
  scan math, reusable on its own.

Most callers never import this directly: pass
``backend="process"`` to :class:`repro.plr.PLRSolver` or
:class:`repro.resilience.ResilientSolver` instead.  Batches never
shard: rows are independent, and one in-process tiled pass over all of
them measured faster than a pool on every batch tried, so
:class:`repro.batch.BatchSolver` runs ``"process"`` in this process.
"""

from repro.parallel.backend import solve_sharded
from repro.parallel.scan import (
    affine_compose,
    affine_identity,
    exclusive_affine_scan,
)
from repro.parallel.sharding import ShardOptions, resolve_workers, slab_spans

__all__ = [
    "ShardOptions",
    "affine_compose",
    "affine_identity",
    "exclusive_affine_scan",
    "resolve_workers",
    "slab_spans",
    "solve_sharded",
]
