"""The graceful-degradation solver chain.

:class:`ResilientSolver` wraps the fast numpy
:class:`~repro.plr.solver.PLRSolver` (or the fault-injectable
:class:`~repro.gpusim.executor.SimulatedPLR`) with a policy-driven
fallback chain whose contract is *correct output or typed error, never
silent corruption*:

* **numerical faults** (a factor table predicted to overflow via its
  spectral radius, NaN/Inf in the output) trigger dtype promotion
  (float32 -> float64) and then chunk-size reduction;
* **simulation faults** (protocol violations, deadlocks — i.e. the
  failure modes injected by :class:`~repro.gpusim.faults.FaultPlan`)
  and **verification mismatches** (silent corruption caught by the
  paired redundant solve) trigger bounded retry with backoff under a
  fresh scheduler seed;
* **deadline overruns** and exhausted retries fall back to the serial
  reference (:func:`repro.core.reference.serial_full`), which is slow
  but definitionally correct.

Every solve returns a typed :class:`SolveReport` recording each
attempt, what degraded, and why — so a service can alert on degraded
solves instead of discovering corrupt data downstream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.errors import (
    BackendError,
    DeadlockError,
    NumericalError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.core.recurrence import Recurrence
from repro.core.reference import resolve_dtype, serial_full
from repro.core.signature import Signature
from repro.core.validation import compare_results
from repro.gpusim.executor import SimulatedPLR
from repro.gpusim.faults import FaultEvent, FaultPlan
from repro.gpusim.spec import MachineSpec
from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import TracePid, coerce_tracer
from repro.plr import solver as plr_solver
from repro.plr.phase1 import check_integer_coefficients
from repro.plr.planner import ExecutionPlan
from repro.plr.solver import PLRSolver, check_backend, prepare, resolve_backend

__all__ = [
    "AttemptRecord",
    "FallbackPolicy",
    "ResilientSolver",
    "SolveReport",
    "solve_request",
]


@dataclass(frozen=True)
class FallbackPolicy:
    """Knobs of the degradation chain; defaults suit a service's hot path.

    Attributes
    ----------
    max_retries:
        Retries (with a fresh scheduler seed) after a simulation fault
        or a verification mismatch, before falling back to serial.
    promote_dtype:
        Allow float32 -> float64 promotion on numerical faults.
    shrink_chunk:
        Allow halving the chunk size when promotion is unavailable or
        insufficient (smaller m keeps rho^m inside the dtype's range).
    min_chunk_size:
        Floor for chunk-size reduction.
    serial_fallback:
        Whether the chain may end at the serial reference.  When False,
        an exhausted chain reports (and :meth:`ResilientSolver.solve`
        raises) the last typed error instead.
    verify:
        ``"auto"`` — paired verification only for the simulator engine
        (the fault-injectable one); ``"paired"`` — always cross-check
        against an independent second engine; ``"none"`` — trust the
        primary engine.
    deadline_s:
        Wall-clock budget; once exceeded the chain stops degrading
        gradually and jumps straight to the serial fallback.
    backoff_base_s:
        Sleep ``backoff_base_s * 2**retry`` between retries (0 in
        tests; nonzero for a service sharing a contended accelerator).
    max_attempts:
        Hard cap on total attempts, bounding pathological policies.
    """

    max_retries: int = 2
    promote_dtype: bool = True
    shrink_chunk: bool = True
    min_chunk_size: int = 64
    serial_fallback: bool = True
    verify: str = "auto"
    deadline_s: float | None = None
    backoff_base_s: float = 0.0
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.verify not in ("auto", "paired", "none"):
            raise ValueError(f"verify must be auto|paired|none, got {self.verify!r}")


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of the chain: configuration, outcome, and cost."""

    engine: str  # "plr" | "sim" | "serial"
    dtype: str
    chunk_size: int | None
    seed: int | None
    outcome: str  # "ok" | "numerical" | "simulation" | "deadlock" | "corrupt" | "backend"
    detail: str = ""
    elapsed_s: float = 0.0


@dataclass
class SolveReport:
    """What a resilient solve did, degraded, and produced."""

    ok: bool
    output: np.ndarray | None
    engine: str | None
    dtype: np.dtype | None
    attempts: list[AttemptRecord] = field(default_factory=list)
    degradations: list[str] = field(default_factory=list)
    error: ReproError | None = None
    fault_events: list[FaultEvent] = field(default_factory=list)
    metrics: dict | None = None
    """Snapshot of the solve's :class:`~repro.obs.metrics.MetricsRegistry`
    (counters/gauges/histograms as plain JSON-ready dicts), covering the
    resilience chain and — for the simulator engine — the kernel run
    itself.  Restore with ``MetricsRegistry.from_snapshot``."""

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def describe(self) -> str:
        if self.ok:
            head = f"OK via {self.engine} ({np.dtype(self.dtype).name})"
        else:
            head = f"FAILED: {type(self.error).__name__}: {self.error}"
        lines = [head]
        for a in self.attempts:
            lines.append(
                f"  attempt[{a.engine} dtype={a.dtype} m={a.chunk_size} "
                f"seed={a.seed}]: {a.outcome}"
                + (f" — {a.detail}" if a.detail else "")
            )
        if self.degradations:
            lines.append("  degradations: " + "; ".join(self.degradations))
        return "\n".join(lines)


class ResilientSolver:
    """Policy-driven fault-tolerant front end for computing recurrences.

    Parameters
    ----------
    recurrence:
        The recurrence (or signature / signature string) to compute.
    machine:
        The GPU the simulator engine models (``engine="sim"`` only;
        defaults to the small test GPU).  The plr engine plans for the
        default machine, as every CPU entry point does, and refuses
        ``machine``.
    policy:
        The :class:`FallbackPolicy`; defaults are production-shaped.
    engine:
        ``"plr"`` — the numpy solver (the fast path); ``"sim"`` — the
        event-ordered GPU simulator, which honours ``fault`` plans and
        exercises the full Phase 2 protocol.
    fault:
        A :class:`~repro.gpusim.faults.FaultPlan` (or legacy
        :class:`~repro.gpusim.executor.ProtocolFault`) injected into
        the simulator engine — the chaos harness's entry point.
    sim_seed:
        Base scheduler seed; retries bump it to re-roll the schedule.
    chunk_size:
        Optional chunk-size override for the plr engine (otherwise the
        paper's planner decides).
    deadlock_rounds:
        Watchdog patience handed to the simulator's scheduler.
    tracer:
        Observability hook (``True`` / a shared
        :class:`~repro.obs.tracer.Tracer` / ``None`` for no-op).  The
        chain emits one ``attempt`` instant per attempt and a
        ``fallback`` instant per degradation transition (cat
        ``resilience``), and threads the tracer into whichever engine
        runs, so one trace shows the whole story: attempt, injected
        fault, stalled blocks, retry, fallback.
    backend:
        Backend of the plr engine: one of
        :data:`~repro.plr.solver.SOLVE_BACKENDS`, all in this process.
        With ``backend="native"``, or ``"auto"`` where it resolves to
        native, each attempt runs its prepared solve *strict*
        (``native_fallback=False``), so a missing compiler or failed
        compile surfaces as a typed
        :class:`~repro.core.errors.BackendError`.  The chain records a
        ``"backend"`` attempt, switches that solve to the single backend
        and goes again without consuming a retry — the toolchain is an
        accelerator, never a correctness dependency.  The next solve
        tries the named backend again.
    context:
        Optional :class:`~repro.obs.context.TraceContext` naming the
        request this chain serves.  When set, the chain emits a
        ``resilient_solve`` span under it, each attempt/fallback
        instant carries its own child span, and per-attempt contexts
        propagate into the engine's solver stages — one request, one
        connected trace tree.
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        machine: MachineSpec | None = None,
        policy: FallbackPolicy | None = None,
        engine: str = "plr",
        fault: object | None = None,
        sim_seed: int = 0,
        chunk_size: int | None = None,
        deadlock_rounds: int = 200,
        tracer=None,
        backend: str = "single",
        context: TraceContext | None = None,
    ) -> None:
        recurrence = Recurrence.coerce(recurrence)
        if engine not in ("plr", "sim"):
            raise ValueError(f"engine must be plr|sim, got {engine!r}")
        check_backend(backend)
        if backend != "single" and engine == "sim":
            raise ValueError(
                f"backend={backend!r} applies to the plr engine only; the "
                "simulator models its own parallelism"
            )
        if machine is not None and engine == "plr":
            raise ValueError(
                "machine applies to the sim engine only; the plr engine "
                "plans for the default machine"
            )
        self.recurrence = recurrence
        self.engine = engine
        self.machine = machine or MachineSpec.small_test_gpu()
        self.policy = policy or FallbackPolicy()
        self.fault = fault
        self.sim_seed = sim_seed
        self.chunk_size = chunk_size
        self.deadlock_rounds = deadlock_rounds
        self.tracer = coerce_tracer(tracer)
        self.context = context
        self.metrics = MetricsRegistry()
        self.backend = backend
        self._pending_events: list[FaultEvent] = []

    # ------------------------------------------------------------------
    def solve(self, values: np.ndarray) -> np.ndarray:
        """Compute the recurrence; raise the typed error on failure."""
        report = self.solve_with_report(values)
        if not report.ok:
            assert report.error is not None
            raise report.error
        return report.output

    def solve_with_report(
        self, values: np.ndarray, dtype: np.dtype | None = None
    ) -> SolveReport:
        """Compute the recurrence and report what degraded and why.

        Never raises for failures the chain understands: the report's
        ``ok``/``error`` fields carry the outcome.  The returned
        report's :attr:`SolveReport.metrics` holds a snapshot of this
        solver's metrics registry taken as the chain finished.

        ``dtype`` pins the starting working dtype (the batch engine
        passes each request's grouped dtype); the chain may still
        promote it while degrading.
        """
        if self.tracer.enabled and self.context is not None:
            with self.tracer.span(
                "resilient_solve", cat="resilience", link=self.context
            ):
                report = self._run_chain(values, dtype=dtype)
        else:
            report = self._run_chain(values, dtype=dtype)
        report.metrics = self.metrics.snapshot()
        return report

    def _degrade(self, report: SolveReport, message: str) -> None:
        """Record one degradation: report line, counter, trace instant."""
        report.degradations.append(message)
        self.metrics.counter("resilience.degradations").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "fallback",
                cat="resilience",
                pid=TracePid.HOST,
                args={"action": message},
                link=self.context.child() if self.context is not None else None,
            )

    def _run_chain(
        self, values: np.ndarray, dtype: np.dtype | None = None
    ) -> SolveReport:
        values = np.asarray(values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("need a non-empty 1D input")
        policy = self.policy
        report = SolveReport(ok=False, output=None, engine=None, dtype=None)
        start = time.monotonic()

        if dtype is None:
            dtype = resolve_dtype(self.recurrence.signature, values.dtype)
        dtype = np.dtype(dtype)
        promotable = dtype == np.float32
        if np.issubdtype(values.dtype, np.floating) and not np.isfinite(values).all():
            # No degradation repairs poisoned input; the serial
            # reference at least propagates it with defined semantics.
            self._degrade(report, "non-finite input: direct serial fallback")
            return self._serial_fallback(values, dtype, report, start)

        plan = self._base_plan(values.size, dtype) if self.engine == "plr" else None
        # An accelerator failure switches this solve, not the solver, to
        # single: the next solve tries the accelerator again.
        backend = self.backend
        seed = self.sim_seed
        retries = 0
        last_error: ReproError = SimulationError("no attempts ran")

        while len(report.attempts) < policy.max_attempts:
            if (
                policy.deadline_s is not None
                and time.monotonic() - start > policy.deadline_s
            ):
                self._degrade(
                    report, f"deadline {policy.deadline_s:g}s exceeded: serial fallback"
                )
                last_error = SimulationError(
                    f"deadline of {policy.deadline_s:g}s exceeded"
                )
                break
            t0 = time.monotonic()
            self._pending_events = []
            attempt_ctx = (
                self.context.child() if self.context is not None else None
            )
            try:
                output = self._attempt(values, dtype, plan, backend, seed, attempt_ctx)
                report.attempts.append(
                    self._record(dtype, plan, seed, "ok", "", t0, attempt_ctx)
                )
                report.ok = True
                report.output = output
                report.engine = self.engine
                report.dtype = np.dtype(dtype)
                return report
            except NumericalError as exc:
                last_error = exc
                report.attempts.append(
                    self._record(dtype, plan, seed, "numerical", str(exc), t0, attempt_ctx)
                )
                if policy.promote_dtype and promotable:
                    dtype = np.dtype(np.float64)
                    promotable = False
                    plan = self._base_plan(values.size, dtype) if plan else None
                    self._degrade(report, "dtype promoted float32 -> float64")
                    continue
                if policy.promote_dtype and np.issubdtype(dtype, np.integer):
                    # Integer arithmetic raising a numerical fault means
                    # the coefficients themselves are not representable
                    # (fractional feedback on an integer request);
                    # retrying or shrinking cannot fix that, but float64
                    # computes the recurrence the caller actually wrote.
                    old = np.dtype(dtype).name
                    dtype = np.dtype(np.float64)
                    plan = self._base_plan(values.size, dtype) if plan else None
                    self._degrade(report, f"dtype promoted {old} -> float64")
                    continue
                shrunk = self._shrunk_plan(plan, values.size)
                if shrunk is not None:
                    self._degrade(
                        report,
                        f"chunk size reduced {plan.chunk_size} -> {shrunk.chunk_size}",
                    )
                    plan = shrunk
                    continue
                break
            except BackendError as exc:
                last_error = exc
                report.attempts.append(
                    self._record(dtype, plan, seed, "backend", str(exc), t0, attempt_ctx)
                )
                self.metrics.counter("resilience.backend_faults").inc()
                # Key on the backend the attempt ran: "auto" raises
                # BackendError only once it resolved to native.
                if resolve_backend(backend, values.size) == "native":
                    # A missing toolchain is not transient within this
                    # solve: switch to the single backend and go again
                    # without consuming a retry — same recurrence,
                    # nothing left to break.
                    backend = "single"
                    self._degrade(
                        report, "native backend failed: numpy single-process fallback"
                    )
                    continue
            except DeadlockError as exc:
                last_error = exc
                report.attempts.append(
                    self._record(dtype, plan, seed, "deadlock", str(exc).splitlines()[0], t0, attempt_ctx)
                )
            except ValidationError as exc:
                last_error = exc
                report.attempts.append(
                    self._record(dtype, plan, seed, "corrupt", str(exc), t0, attempt_ctx)
                )
            except SimulationError as exc:
                last_error = exc
                report.attempts.append(
                    self._record(dtype, plan, seed, "simulation", str(exc), t0, attempt_ctx)
                )
            finally:
                # Injected-fault event log of the simulator attempt, if
                # the run got far enough to surface one.
                if self._pending_events:
                    self.metrics.counter("resilience.faults_fired").inc(
                        len(self._pending_events)
                    )
                report.fault_events.extend(self._pending_events)
                self._pending_events = []
            # Shared retry path for simulation faults / corruption.
            if retries >= policy.max_retries:
                break
            if policy.backoff_base_s:
                time.sleep(policy.backoff_base_s * 2**retries)
            retries += 1
            seed += 1
            self._degrade(
                report, f"retry {retries}/{policy.max_retries} with scheduler seed {seed}"
            )
            self.metrics.counter("resilience.retries").inc()

        if policy.serial_fallback:
            if report.attempts and not any(
                d.startswith("serial") or "serial fallback" in d
                for d in report.degradations
            ):
                self._degrade(report, "fell back to serial reference")
            return self._serial_fallback(values, dtype, report, start)
        report.error = last_error
        return report

    # ------------------------------------------------------------------
    def _base_plan(self, n: int, dtype: np.dtype) -> ExecutionPlan:
        # Looked up on the solver module when called, so a wrapper
        # installed there (the benchmark's traced run) sees this plan.
        plan = plr_solver.plan_execution(self.recurrence.signature, n)
        if self.chunk_size is not None:
            plan = replace(
                plan,
                chunk_size=self.chunk_size,
                values_per_thread=1,
                num_chunks=-(-n // self.chunk_size),
            )
        return plan

    def _shrunk_plan(self, plan: ExecutionPlan | None, n: int) -> ExecutionPlan | None:
        """Halve the chunk size, or None when shrinking is exhausted."""
        if plan is None or not self.policy.shrink_chunk:
            return None
        half = plan.chunk_size // 2
        floor = max(
            self.policy.min_chunk_size,
            plan.values_per_thread,
            self.recurrence.order,
        )
        if half < floor:
            return None
        return replace(plan, chunk_size=half, num_chunks=-(-n // half))

    def _record(
        self,
        dtype: np.dtype,
        plan: ExecutionPlan | None,
        seed: int,
        outcome: str,
        detail: str,
        t0: float,
        ctx: TraceContext | None = None,
    ) -> AttemptRecord:
        self.metrics.counter("resilience.attempts").inc()
        self.metrics.counter(f"resilience.attempts.{outcome}").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "attempt",
                cat="resilience",
                pid=TracePid.HOST,
                args={
                    "engine": self.engine,
                    "dtype": np.dtype(dtype).name,
                    "seed": seed if self.engine == "sim" else None,
                    "outcome": outcome,
                },
                link=ctx,
            )
        return AttemptRecord(
            engine=self.engine,
            dtype=np.dtype(dtype).name,
            chunk_size=plan.chunk_size if plan else None,
            seed=seed if self.engine == "sim" else None,
            outcome=outcome,
            detail=detail,
            elapsed_s=time.monotonic() - t0,
        )

    def _should_verify(self) -> bool:
        if self.policy.verify == "none":
            return False
        if self.policy.verify == "paired":
            return True
        return self.engine == "sim"

    def _attempt(
        self,
        values: np.ndarray,
        dtype: np.dtype,
        plan: ExecutionPlan | None,
        backend: str,
        seed: int,
        ctx: TraceContext | None = None,
    ) -> np.ndarray:
        work = values.astype(dtype, copy=False)
        if self.engine == "sim":
            sim = SimulatedPLR(
                self.recurrence,
                self.machine,
                seed=seed,
                fault=self.fault,
                deadlock_rounds=self.deadlock_rounds,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            # Injected faults may blow up float arithmetic mid-protocol;
            # the health check and paired verification below are the
            # detectors, so keep numpy quiet during the attempt.
            with np.errstate(over="ignore", invalid="ignore"):
                result = sim.run(work)
            self._pending_events = list(result.fault_events)
            output = result.output
        else:
            with self.tracer.span(
                "factor_table",
                cat="solver",
                link=ctx.child() if ctx is not None else None,
            ):
                handle = prepare(self.recurrence, values.size, dtype, backend, plan)
            table = handle.table
            if table.overflow_risk:
                raise NumericalError(
                    f"factor table for m={plan.chunk_size} predicted to "
                    f"overflow {np.dtype(dtype).name} (spectral radius "
                    f"{table.spectral_radius:.4g})"
                )
            # An attempt is allowed to overflow — that is precisely what
            # the health check below detects — so keep numpy quiet here.
            # Strict: the chain owns the degradation decision, so a
            # native failure surfaces here as a typed error.
            with np.errstate(over="ignore", invalid="ignore"):
                output, _, _ = handle(values, self.tracer, ctx, native_fallback=False)
        if np.issubdtype(np.dtype(dtype), np.floating) and not np.isfinite(output).all():
            bad = int((~np.isfinite(output)).sum())
            raise NumericalError(
                f"output contains {bad} non-finite values in {np.dtype(dtype).name}"
            )
        if self._should_verify():
            self._verify(work, output, dtype)
        return output

    def _verify(self, work: np.ndarray, output: np.ndarray, dtype: np.dtype) -> None:
        """Redundant-execution check: an independent engine must agree.

        The paired engine (the numpy solver for the simulator, and vice
        versa a freshly planned solve for the numpy path) shares no
        scheduler, no fault plan, and no chunking with the primary, so
        silently corrupted carries (stale reads, bit flips, fence
        elision) surface as a mismatch here — which the chain treats
        like any other transient fault.
        """
        reference = PLRSolver(self.recurrence).solve(work, dtype=dtype)
        outcome = compare_results(output, reference)
        if not outcome.ok:
            raise ValidationError(
                f"paired verification failed: {outcome.describe()}"
            )

    def _serial_fallback(
        self,
        values: np.ndarray,
        dtype: np.dtype,
        report: SolveReport,
        start: float,
    ) -> SolveReport:
        t0 = time.monotonic()
        # The serial reference casts coefficients to the working dtype
        # like every other engine, so an integer dtype with fractional
        # coefficients would corrupt here too.  Honour the "never silent
        # corruption" contract: report the typed error instead.
        try:
            check_integer_coefficients(
                self.recurrence.signature.feedforward
                + self.recurrence.signature.feedback,
                dtype,
            )
        except NumericalError as exc:
            report.ok = False
            report.error = exc
            return report
        output = serial_full(values, self.recurrence.signature, dtype=dtype)
        if (
            np.issubdtype(np.dtype(dtype), np.floating)
            and dtype == np.float32
            and self.policy.promote_dtype
            and not np.isfinite(output).all()
            and np.isfinite(values).all()
        ):
            # Even the reference overflows in float32; promotion is the
            # only remaining lever and the serial engine supports it.
            self._degrade(report, "dtype promoted float32 -> float64 (serial)")
            dtype = np.dtype(np.float64)
            output = serial_full(values, self.recurrence.signature, dtype=dtype)
        self.metrics.counter("resilience.attempts").inc()
        self.metrics.counter("resilience.serial_fallbacks").inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "attempt",
                cat="resilience",
                pid=TracePid.HOST,
                args={"engine": "serial", "dtype": np.dtype(dtype).name, "outcome": "ok"},
                link=self.context.child() if self.context is not None else None,
            )
        report.attempts.append(
            AttemptRecord(
                engine="serial",
                dtype=np.dtype(dtype).name,
                chunk_size=None,
                seed=None,
                outcome="ok",
                elapsed_s=time.monotonic() - t0,
            )
        )
        report.ok = True
        report.output = output
        report.engine = "serial"
        report.dtype = np.dtype(dtype)
        report.error = None
        return report


def solve_request(
    recurrence: Recurrence | Signature | str,
    values: np.ndarray,
    dtype: np.dtype | None = None,
    policy: FallbackPolicy | None = None,
    tracer=None,
    context: TraceContext | None = None,
    backend: str = "single",
) -> SolveReport:
    """Solve one request through a fresh degradation chain.

    The batch engine's per-request isolation path: when a grouped solve
    fails (or one row's output is unhealthy), each affected request is
    re-run alone through this function so its failure — and any
    degradation that rescues it — stays confined to that request.
    ``dtype`` pins the dtype the request was grouped under; ``context``
    carries the request's trace identity into the chain; ``backend``
    selects the isolated re-run's backend.
    """
    solver = ResilientSolver(
        recurrence, policy=policy, tracer=tracer, context=context, backend=backend
    )
    return solver.solve_with_report(np.asarray(values), dtype=dtype)
