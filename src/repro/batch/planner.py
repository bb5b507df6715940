"""Grouping a mixed request queue into homogeneous sub-batches.

The batched engine (:mod:`repro.batch.engine`) only wins when many
requests share one pass, but a realistic queue mixes signatures,
dtypes, and lengths.  :class:`BatchPlanner` keys requests by
``(signature, dtype, m)``: the signature and dtype decide which
correction-factor table and which arithmetic a solve uses, and m is the
chunk size of the request's own plan (the paper's planner on the
default machine, :func:`~repro.plr.planner.plan_execution`).  Each group
builds its table exactly once through the process-wide LRU cache
(:func:`repro.plr.solver.cached_factor_table`).

Lengths of one chunk size share a group.  The solver packs a group's
rows into one grid of chunks, each row starting on a chunk boundary,
and restarts the carry spine at every row
(:func:`repro.plr.tiled.packed_starts`).  The group is planned for its
longest row, its :attr:`BatchGroup.bucket`, whose plan has every
member's chunk size, so every row computes as its own solve does and
pads fewer than m words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import PlanError
from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype
from repro.core.signature import Signature
from repro.plr.planner import plan_execution
from repro.plr.tiled import row_chunks

__all__ = ["BatchRequest", "BatchGroup", "BatchPlanner"]


@dataclass
class BatchRequest:
    """One entry of the queue: a signature, its input, and a dtype.

    ``signature`` accepts a signature string, a :class:`Signature`, or
    a :class:`Recurrence`; ``dtype`` defaults to the paper's
    methodology via :func:`~repro.core.reference.resolve_dtype` (int32
    for integer signatures on integer data, float32 otherwise).
    ``tag`` is an opaque caller identifier carried through to the
    request's outcome.
    """

    signature: Signature
    values: np.ndarray
    dtype: np.dtype = None
    tag: object = None
    deadline: float | None = None
    """Absolute deadline on the :func:`time.monotonic` clock (or the
    engine's injected clock).  ``None`` means the request waits forever.
    The engine sheds an expired request before solving it and replies
    with a typed :class:`~repro.core.errors.DeadlineExceeded` when the
    deadline passes mid-solve — a late result is never returned."""

    trace: object | None = None
    """Optional :class:`~repro.obs.context.TraceContext` naming the
    request — the serving layer mints one per admitted request.  The
    engine parents its spans (group pass, isolation re-runs, solver
    stages) under it so one request reconstructs as one trace tree."""

    def __post_init__(self) -> None:
        self.signature = Recurrence.coerce(self.signature).signature
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise ValueError(
                f"request values must be 1D, got shape {self.values.shape}"
            )
        if self.values.dtype.kind not in "biuf":
            raise ValueError(
                f"request values must be numeric, got dtype {self.values.dtype}"
            )
        if self.dtype is None:
            self.dtype = resolve_dtype(self.signature, self.values.dtype)
        self.dtype = np.dtype(self.dtype)
        if self.deadline is not None:
            self.deadline = float(self.deadline)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass
class BatchGroup:
    """Requests sharing (signature, dtype, m) — one packed pass.

    ``indices`` are positions in the original queue, so outcomes can be
    reassembled in submission order.
    """

    signature: Signature
    dtype: np.dtype
    requests: list[BatchRequest] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        return len(self.requests)

    @property
    def bucket(self) -> int:
        """The longest member's length: the group is planned for it."""
        return max((r.n for r in self.requests), default=0)

    def padding(self, chunk_size: int) -> int:
        """Zero words the packed pass computes beyond the members' values.

        Each member takes whole chunks of ``chunk_size``
        (:func:`~repro.plr.tiled.row_chunks`).
        """
        return sum(
            row_chunks(r.n, chunk_size) * chunk_size - r.n for r in self.requests
        )

    def stacked(self) -> list[np.ndarray]:
        """The members' values cast to the group dtype, unpadded."""
        return [np.asarray(r.values, dtype=self.dtype) for r in self.requests]


def _chunk_size(signature: Signature, n: int) -> int | None:
    """The chunk size of a length-n request's own plan; None when it
    has none (the group's pass then raises the typed PlanError)."""
    try:
        return plan_execution(signature, n).chunk_size
    except PlanError:
        return None


class BatchPlanner:
    """Groups a request queue into (signature, dtype, m) sub-batches.

    Parameters
    ----------
    max_batch:
        Optional cap on requests per group — groups beyond it split (in
        submission order), bounding the memory of one packed pass.
    """

    def __init__(self, max_batch: int | None = None) -> None:
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch

    def plan(self, requests: list[BatchRequest]) -> list[BatchGroup]:
        """Group the queue; empty requests (n=0) are skipped entirely.

        Groups come out keyed in first-occurrence order, and requests
        keep their submission order within a group.
        """
        groups: dict[tuple, BatchGroup] = {}
        chunk_sizes: dict[tuple, int | None] = {}
        for index, request in enumerate(requests):
            if request.n == 0:
                continue
            shape = (request.signature, request.n)
            if shape not in chunk_sizes:
                chunk_sizes[shape] = _chunk_size(*shape)
            key = (request.signature, request.dtype.str, chunk_sizes[shape])
            group = groups.get(key)
            if group is None:
                group = groups[key] = BatchGroup(
                    signature=request.signature, dtype=request.dtype
                )
            group.requests.append(request)
            group.indices.append(index)
        if self.max_batch is None:
            return list(groups.values())
        split: list[BatchGroup] = []
        for group in groups.values():
            for start in range(0, group.batch_size, self.max_batch):
                stop = start + self.max_batch
                split.append(
                    BatchGroup(
                        signature=group.signature,
                        dtype=group.dtype,
                        requests=group.requests[start:stop],
                        indices=group.indices[start:stop],
                    )
                )
        return split
