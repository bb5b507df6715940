"""Exception hierarchy for the PLR reproduction.

Every error raised by this package derives from :class:`ReproError` so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SignatureError(ReproError):
    """A recurrence signature is syntactically or semantically invalid.

    The PLR compiler performs the same checks the paper describes in
    Section 3: the last non-recursive and the last recursive coefficient
    must not be zero, and both coefficient lists must be non-empty.
    """


class PlanError(ReproError):
    """An execution plan could not be constructed for the given input."""


class CodegenError(ReproError):
    """The code generator could not emit or build an artifact."""


class BackendError(ReproError):
    """A generated artifact failed to compile, load, or execute."""


class SimulationError(ReproError):
    """The GPU machine model detected an inconsistency during execution.

    Raised, for example, when a kernel reads a carry whose ready flag was
    never set, which would be a data race on real hardware.
    """


class DeadlockError(SimulationError):
    """The simulated grid made no progress for many scheduler rounds.

    Carries *forensics*: one wait record per stalled block describing
    which chunk it runs, which flags it is blocked on, and at what
    look-back distance — enough to reconstruct the broken dependence
    chain of the Phase 2 protocol (see
    :class:`repro.gpusim.scheduler.WaitInfo`).  When the run was
    traced, ``trace_tails`` maps each stalled chunk id to its last few
    :class:`~repro.obs.tracer.TraceEvent` records, showing how the
    block got stuck rather than only what it waits on.
    """

    def __init__(
        self,
        message: str,
        forensics: tuple = (),
        trace_tails: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.forensics = tuple(forensics)
        self.trace_tails = dict(trace_tails or {})


class NumericalError(ReproError):
    """A computation produced (or is predicted to produce) bad numbers.

    Covers NaN/Inf contamination of outputs, overflowing correction
    factors, and the spectral-radius overflow prediction: for a
    signature with spectral radius rho > 1 the factor lists grow like
    rho^m, which exceeds float32 range long before the paper's
    m = 11264 chunk size.  :class:`~repro.resilience.ResilientSolver`
    reacts by promoting the dtype or shrinking the chunk size.
    """


class StateError(ReproError, ValueError):
    """Externally supplied solver state is malformed.

    Raised by :meth:`repro.plr.streaming.StreamingSolver.load_state`
    when a checkpoint's carry arrays have the wrong shape or dtype, or
    contain non-finite values that would silently poison every later
    block.  Subclasses :class:`ValueError` for backward compatibility
    with callers that caught the old untyped error.
    """


class WorkerError(ReproError):
    """A multicore worker process died or stalled mid-solve.

    Raised by the sharded process backend (:mod:`repro.parallel`) when
    a pool worker exits abnormally (killed, OOM, segfault — surfacing
    as a broken process pool) or fails to return within the configured
    timeout.  The shared-memory work buffer may hold a half-corrected
    state at that point, so the backend never returns partial output.
    Only ``PLRSolver(backend="process")`` runs that backend.
    """


class ValidationError(ReproError):
    """A computed result did not match the serial reference."""


class DeadlineExceeded(ReproError):
    """A request's deadline passed before its result could be delivered.

    Carried by the serving layer's reply (and by
    :class:`~repro.batch.engine.RequestOutcome`) when a request expires
    in the intake queue, during batch formation, or while its group was
    being solved.  A late result is never returned: a caller that set a
    deadline has, by definition, stopped waiting.
    """


class OverloadError(ReproError):
    """The server shed a request instead of queueing it.

    Raised (as a typed reply, never a hang) when the bounded intake
    queue is full, when the server is draining, or when the circuit
    breaker is open after repeated batch failures.  The request was not
    executed; retrying after a backoff is safe.
    """


class ProtocolError(ReproError):
    """A client frame could not be parsed as a request.

    Covers malformed JSON, non-object frames, missing required fields,
    oversized lines, and invalid field types on the serving layer's
    JSONL protocol.  The connection survives a malformed frame (the
    reply carries this error); only an unframeable byte stream — a line
    exceeding the hard size limit — closes it.
    """


class UnsupportedRecurrenceError(ReproError):
    """A baseline was asked to run a recurrence outside its domain.

    The paper's comparison codes support restricted recurrence classes
    (e.g. Alg3 and Rec accept at most one non-recursive coefficient);
    our models of them enforce the same restrictions.
    """
