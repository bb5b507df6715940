"""The batched execution engine: group, solve, isolate, reassemble.

:class:`BatchEngine` is the service-shaped front end of
:mod:`repro.batch`: it takes a mixed queue of
:class:`~repro.batch.planner.BatchRequest`\\ s, lets the
:class:`~repro.batch.planner.BatchPlanner` group them into homogeneous
(signature, dtype, chunk size) sub-batches, runs each group through one packed
:class:`~repro.batch.solver.BatchSolver` pass over its ragged rows, and
returns one :class:`RequestOutcome` per request in submission order.

Failure isolation is per request: if a grouped pass raises a typed
error, or one row's output fails the numerical health check, the
affected request(s) are re-run *alone* through the resilience chain
(:func:`repro.resilience.solver.solve_request`) — so a single request
with a pathological signature or poisoned input degrades by itself
while its batch-mates keep their fast vectorized result.

The engine publishes ``batch.*`` metrics (request/group counters, a
group-size histogram, padding-waste and isolation counters) and emits
one ``batch_group`` span per grouped pass when traced.  The padding
counted is the zero words the packed pass computes: each row rounds
its length plus the map stage's FIR order up to whole chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.errors import DeadlineExceeded, ReproError
from repro.core.recurrence import Recurrence
from repro.obs.context import TraceContext, new_span_id
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import coerce_tracer
from repro.batch.planner import BatchGroup, BatchPlanner, BatchRequest
from repro.batch.solver import BatchSolver
from repro.gpusim.spec import MachineSpec
from repro.plr.solver import check_backend
from repro.resilience.solver import FallbackPolicy, solve_request

__all__ = ["BatchEngine", "RequestOutcome", "execute_batch"]


@dataclass
class RequestOutcome:
    """What one request produced: output or typed error, never both.

    ``engine`` records which path served it: ``"batch"`` (the
    vectorized group pass), ``"empty"`` (zero-length short circuit),
    ``"shed"`` (expired before its group was solved — a typed
    :class:`~repro.core.errors.DeadlineExceeded`, no work done), or
    the resilience chain's engine (``"plr"`` / ``"serial"``) when the
    request was isolated.
    """

    index: int
    tag: object
    ok: bool
    output: np.ndarray | None
    error: ReproError | None = None
    engine: str = "batch"
    degradations: list[str] = field(default_factory=list)

    @property
    def isolated(self) -> bool:
        return self.engine not in ("batch", "empty", "shed")


class BatchEngine:
    """Executes a mixed request queue with batched passes and isolation.

    Parameters
    ----------
    planner:
        The grouping policy; defaults to a fresh :class:`BatchPlanner`.
    policy:
        The :class:`~repro.resilience.solver.FallbackPolicy` used when
        a request is isolated into its own resilience chain.
    machine:
        Planning machine for the grouped passes (default: Titan X).
    metrics:
        Registry for the ``batch.*`` metrics; a private one by default
        (read it via :attr:`metrics`).
    tracer:
        Observability hook shared by the grouped passes and any
        isolated re-runs.
    clock:
        Monotonic time source for request deadlines (injectable in
        tests; :func:`time.monotonic` by default).  Deadlines on
        :class:`~repro.batch.planner.BatchRequest` are absolute values
        of this clock.
    backend / workers / shard_options:
        Execution backend of the grouped passes
        (:class:`~repro.batch.BatchSolver`), also forwarded into the
        resilience chain for *isolated* re-runs.  ``"process"`` lets an
        isolated request use the multicore sharded path (its worker
        lanes then appear in the request's trace), sized by ``workers``
        / ``shard_options``; its grouped passes run in this process,
        since a batch never shards.  ``"native"`` switches the grouped
        pass to the JIT-compiled C kernels (per-row, one compile per
        kernel shape) with automatic numpy fallback.  ``"auto"`` picks
        native or single for each grouped pass from its longest row
        (:func:`~repro.plr.solver.resolve_backend`); isolated re-runs
        then use the single-process chain.  Any other name raises
        ``ValueError`` here, before a queue runs.
    """

    def __init__(
        self,
        planner: BatchPlanner | None = None,
        policy: FallbackPolicy | None = None,
        machine: MachineSpec | None = None,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        clock=time.monotonic,
        backend: str = "single",
        workers: int | None = None,
        shard_options=None,
    ) -> None:
        check_backend(backend)
        self.planner = planner or BatchPlanner()
        self.policy = policy or FallbackPolicy()
        self.machine = machine or MachineSpec.titan_x()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = coerce_tracer(tracer)
        self.clock = clock
        self.backend = backend
        self.workers = workers
        self.shard_options = shard_options

    # ------------------------------------------------------------------
    def execute(
        self,
        requests: list[BatchRequest],
        context: TraceContext | None = None,
    ) -> list[RequestOutcome]:
        """Run the queue; outcomes line up with the submitted requests.

        ``context`` is the caller's span (the serving layer passes its
        flush span) — group spans and isolation chains parent under it.
        """
        requests = list(requests)
        self.metrics.counter("batch.requests").inc(len(requests))
        outcomes: list[RequestOutcome | None] = [None] * len(requests)

        for index, request in enumerate(requests):
            if request.n == 0:
                # The planner cannot plan a zero-length solve; the
                # answer is definitionally an empty array.
                self.metrics.counter("batch.empty_requests").inc()
                outcomes[index] = RequestOutcome(
                    index=index,
                    tag=request.tag,
                    ok=True,
                    output=np.zeros(0, dtype=request.dtype),
                    engine="empty",
                )

        # Shed requests that expired while queued *before* batch
        # formation: an expired request must not influence grouping or
        # a group's plan, and its work must never run.
        for index, request in enumerate(requests):
            if outcomes[index] is None and self._expired(request):
                outcomes[index] = self._shed(request, index, "expired in queue")

        pending = [
            (index, request)
            for index, request in enumerate(requests)
            if outcomes[index] is None
        ]
        groups = self.planner.plan([request for _, request in pending])
        for group in groups:
            # Planner indices address the filtered list; translate them
            # back to submission-order positions.
            group.indices = [pending[j][0] for j in group.indices]
        self.metrics.counter("batch.groups").inc(len(groups))
        for group in groups:
            self.metrics.histogram("batch.group_size").observe(group.batch_size)
            self._run_group(group, outcomes, context)

        assert all(o is not None for o in outcomes)
        return outcomes

    # ------------------------------------------------------------------
    def _expired(self, request: BatchRequest) -> bool:
        return request.deadline is not None and self.clock() >= request.deadline

    def _shed(self, request: BatchRequest, index: int, why: str) -> RequestOutcome:
        """Typed DeadlineExceeded for a request whose budget ran out."""
        self.metrics.counter("batch.shed_expired").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "shed", cat="batch", args={"index": index, "why": why}
            )
        return RequestOutcome(
            index=index,
            tag=request.tag,
            ok=False,
            output=None,
            error=DeadlineExceeded(f"request deadline passed: {why}"),
            engine="shed",
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _group_context(
        group: BatchGroup, context: TraceContext | None
    ) -> TraceContext | None:
        """The span context for one group pass.

        A group serving exactly one traced request stays inside that
        request's trace (parented to the caller's span when one was
        given); a group covering several requests gets a span in the
        caller's trace — or a fresh one — and the member trace ids ride
        in the span args as links, since one span cannot belong to many
        traces.
        """
        traced = [r.trace for r in group.requests if r.trace is not None]
        if len(traced) == 1:
            sole = traced[0]
            return TraceContext(
                trace_id=sole.trace_id,
                span_id=new_span_id(),
                parent_id=context.span_id if context is not None else sole.span_id,
                sampled=sole.sampled,
            )
        if context is not None:
            return context.child()
        if traced:
            return TraceContext.new()
        return None

    def _run_group(
        self,
        group: BatchGroup,
        outcomes: list[RequestOutcome | None],
        context: TraceContext | None = None,
    ) -> None:
        # Cooperative cancellation checkpoint: requests that expired
        # between planning and this group's turn are shed now, and the
        # group shrinks to its live members (and is planned for the
        # longest of them) before any solving happens.
        expired = {
            row for row, request in enumerate(group.requests)
            if self._expired(request)
        }
        if expired:
            for row in sorted(expired):
                index = group.indices[row]
                outcomes[index] = self._shed(
                    group.requests[row], index, "expired awaiting its group"
                )
            live = [row for row in range(group.batch_size) if row not in expired]
            if not live:
                return
            group = BatchGroup(
                signature=group.signature,
                dtype=group.dtype,
                requests=[group.requests[row] for row in live],
                indices=[group.indices[row] for row in live],
            )
        group_ctx = self._group_context(group, context)
        span_args = None
        if self.tracer.enabled:
            span_args = {
                "signature": str(group.signature),
                "dtype": group.dtype.name,
                "batch": group.batch_size,
                "bucket": group.bucket,
            }
            member_traces = sorted(
                {r.trace.trace_id for r in group.requests if r.trace is not None}
            )
            if len(member_traces) > 1:
                # One span cannot live in several traces; record the
                # members as span links instead.
                span_args["linked_traces"] = member_traces
        with self.tracer.span(
            "batch_group", cat="batch", args=span_args, link=group_ctx
        ):
            solver = BatchSolver(
                group.signature,
                machine=self.machine,
                tracer=self.tracer,
                backend=self.backend,
            )
            try:
                plan = solver.plan_for(group.bucket)
                padding = group.padding(plan.chunk_size)
                self.metrics.counter("batch.padded_values").inc(padding)
                if span_args is not None:
                    # Read when the span closes.
                    span_args["padding"] = padding
                # Overflow in one row is expected occasionally and the
                # per-row health check below is the detector; keep numpy
                # quiet during the grouped pass, like the resilience
                # chain does for its attempts.
                with np.errstate(over="ignore", invalid="ignore"):
                    outputs = solver.solve(
                        group.stacked(), plan=plan, dtype=group.dtype
                    )
            except ReproError as exc:
                # The whole pass failed with a typed error (factor table
                # predicted to overflow, lossy integer coefficients...).
                # Every member re-runs alone so each gets its own
                # degradation story instead of sharing one failure.
                for row, index in enumerate(group.indices):
                    outcomes[index] = self._isolate(
                        group, group.requests[row], index, str(exc), group_ctx
                    )
                return
            floating = np.issubdtype(group.dtype, np.floating)
            for row, index in enumerate(group.indices):
                request = group.requests[row]
                if self._expired(request):
                    # The group finished, but this member's deadline
                    # passed mid-solve; the contract says typed error,
                    # never a late result.
                    self.metrics.counter("batch.deadline_missed").inc()
                    outcomes[index] = RequestOutcome(
                        index=index,
                        tag=request.tag,
                        ok=False,
                        output=None,
                        error=DeadlineExceeded(
                            "request deadline passed while its group was solving"
                        ),
                        engine="shed",
                    )
                    continue
                output = outputs[row][: request.n].copy()
                if floating and not np.isfinite(output).all():
                    outcomes[index] = self._isolate(
                        group, request, index, "non-finite row output", group_ctx
                    )
                    continue
                outcomes[index] = RequestOutcome(
                    index=index, tag=request.tag, ok=True, output=output
                )

    def _isolate(
        self,
        group: BatchGroup,
        request: BatchRequest,
        index: int,
        why: str,
        group_ctx: TraceContext | None = None,
    ) -> RequestOutcome:
        """Re-run one request alone through the resilience chain."""
        if self._expired(request):
            return self._shed(request, index, "expired before isolation re-run")
        self.metrics.counter("batch.isolated").inc()
        # The isolation chain stays in the *request's* trace.  When the
        # group span shares that trace (sole traced member) it becomes
        # the parent; otherwise the chain hangs off the request root.
        if request.trace is not None:
            if group_ctx is not None and group_ctx.trace_id == request.trace.trace_id:
                iso_ctx = group_ctx.child()
            else:
                iso_ctx = request.trace.child()
        else:
            iso_ctx = group_ctx.child() if group_ctx is not None else None
        if self.tracer.enabled:
            self.tracer.instant(
                "isolate",
                cat="batch",
                args={"index": index, "why": why},
                link=iso_ctx,
            )
        policy = self.policy
        if request.deadline is not None:
            # Propagate the remaining budget into the degradation chain
            # so it stops escalating (and jumps to its fallback) instead
            # of burning time the caller no longer has.
            remaining = max(request.deadline - self.clock(), 1e-3)
            if policy.deadline_s is None or remaining < policy.deadline_s:
                policy = replace(policy, deadline_s=remaining)
        report = solve_request(
            Recurrence(request.signature),
            request.values,
            dtype=group.dtype,
            policy=policy,
            tracer=self.tracer,
            context=iso_ctx,
            # Isolation is the careful slow path: "auto" re-runs there
            # as the single-process chain, so an isolated request's
            # degradation story does not depend on whether this machine
            # has a C compiler.
            backend="single" if self.backend == "auto" else self.backend,
            workers=self.workers,
            shard_options=self.shard_options,
        )
        return RequestOutcome(
            index=index,
            tag=request.tag,
            ok=report.ok,
            output=report.output,
            error=report.error,
            engine=report.engine or "plr",
            degradations=list(report.degradations),
        )


def execute_batch(
    requests: list[BatchRequest], **kwargs
) -> list[RequestOutcome]:
    """One-shot convenience: ``execute_batch(requests)`` on a fresh engine."""
    return BatchEngine(**kwargs).execute(requests)
