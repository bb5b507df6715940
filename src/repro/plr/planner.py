"""Execution planning: the m / x / register heuristics of Section 3.

"PLR sets the chunk size m for each thread block to 1024*x, where x is
the number of values each thread has to process.  x is the smallest
integer for which x * 1024 * T > n ...  Moreover, x <= 9 for
floating-point signatures and x <= 11 for integer signatures.  PLR
allocates 32 registers per thread for floating-point signatures as well
as for integer signatures that only contain ones and zeros ...  For
more complex integer signatures, it allocates 64 registers per thread."

T, the number of thread blocks the GPU can run simultaneously, follows
from the register budget: with 65,536 registers per SM, 1024-thread
blocks at 32 regs/thread give 2 resident blocks per SM; at 64
regs/thread, 1.

The paper notes these heuristics are crude and defers tuning m and x to
future work; :func:`tuned_plan` implements a SAM-style auto-tuner as
that extension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.errors import PlanError
from repro.core.signature import Signature
from repro.gpusim.spec import MachineSpec

__all__ = ["ExecutionPlan", "plan_execution", "tuned_plan", "MAX_PIPELINE_DEPTH"]

MAX_PIPELINE_DEPTH = 32
"""Maximum look-back distance c; one warp handles the carries."""

_MAX_X_FLOAT = 9
_MAX_X_INT = 11


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything the solver, simulator, and codegen need to agree on.

    Attributes
    ----------
    n:
        Input length in words.
    block_size:
        Threads per block (the paper always uses 1024).
    values_per_thread:
        The paper's x.
    chunk_size:
        The paper's m = block_size * x; Phase 1 stops here.
    registers_per_thread:
        32 or 64, per the paper's heuristic.
    resident_blocks:
        The paper's T — blocks the whole GPU holds concurrently.
    num_chunks:
        ceil(n / chunk_size); also the grid size.
    pipeline_depth:
        The paper's c <= 32.
    warp_size:
        Lanes per warp (32 on all NVIDIA parts the paper targets).
    is_integer:
        Whether the plan computes in integer arithmetic.
    """

    n: int
    block_size: int
    values_per_thread: int
    chunk_size: int
    registers_per_thread: int
    resident_blocks: int
    num_chunks: int
    pipeline_depth: int
    warp_size: int
    is_integer: bool

    @property
    def padded_n(self) -> int:
        """Input length rounded up to a whole number of chunks."""
        return self.num_chunks * self.chunk_size

    @property
    def warps_per_block(self) -> int:
        return self.block_size // self.warp_size

    def describe(self) -> str:
        return (
            f"n={self.n} m={self.chunk_size} x={self.values_per_thread} "
            f"blocks={self.num_chunks} resident={self.resident_blocks} "
            f"regs={self.registers_per_thread} c<={self.pipeline_depth}"
        )


def _signature_is_simple_integer(signature: Signature) -> bool:
    """Integer signatures whose coefficients are all 0/1 get 32 regs."""
    coeffs = signature.feedforward + signature.feedback
    return all(isinstance(c, int) and c in (0, 1) for c in coeffs)


def plan_execution(
    signature: Signature,
    n: int,
    machine: MachineSpec | None = None,
) -> ExecutionPlan:
    """Build the execution plan for a given input size.

    The plan is the paper's m/x/T heuristics, a pure function of the
    signature, n and the machine.

    Raises :class:`PlanError` for empty inputs or inputs beyond the
    4 GB / 2^30-word limit the paper states.
    """
    if machine is None:
        machine = MachineSpec.titan_x()
    if n < 1:
        raise PlanError(f"input length must be >= 1, got {n}")
    if n > 2**30:
        raise PlanError(
            f"input length {n} exceeds the 2^30-word (4 GB) limit PLR supports"
        )

    is_integer = signature.is_integer
    if not is_integer or _signature_is_simple_integer(signature):
        registers = 32
    else:
        registers = 64
    block_size = machine.max_threads_per_block
    blocks_per_sm = max(1, machine.registers_per_sm // (registers * block_size))
    resident = blocks_per_sm * machine.num_sms

    max_x = _MAX_X_INT if is_integer else _MAX_X_FLOAT
    # Smallest x with x * 1024 * T > n, clamped to the per-dtype maximum.
    x = max(1, -(-n // (block_size * resident)))
    if x * block_size * resident <= n:
        x += 1
    x = min(x, max_x)

    chunk_size = block_size * x
    num_chunks = -(-n // chunk_size)
    return ExecutionPlan(
        n=n,
        block_size=block_size,
        values_per_thread=x,
        chunk_size=chunk_size,
        registers_per_thread=registers,
        resident_blocks=resident,
        num_chunks=num_chunks,
        pipeline_depth=MAX_PIPELINE_DEPTH,
        warp_size=machine.warp_size,
        is_integer=is_integer,
    )


def tuned_plan(
    signature: Signature,
    n: int,
    objective: Callable[[ExecutionPlan], float],
    machine: MachineSpec | None = None,
    candidate_x: Sequence[int] | None = None,
) -> ExecutionPlan:
    """SAM-style auto-tuning of x (paper Section 3: future work).

    Evaluates ``objective`` (lower is better — e.g. modeled or measured
    runtime) over candidate values of x and returns the plan with the
    best score.  SAM "runs an auto-tuner upon installation that
    determines the optimal number of elements to assign to each thread
    for different problem sizes"; this is the same idea applied to PLR.

    Raises :class:`PlanError` for a candidate outside the valid range,
    an empty ``candidate_x``, or an objective that scores every
    candidate inf or NaN.
    """
    base = plan_execution(signature, n, machine)
    max_x = _MAX_X_INT if base.is_integer else _MAX_X_FLOAT
    if candidate_x is None:
        candidate_x = range(1, max_x + 1)
    if len(candidate_x) == 0:
        raise PlanError("candidate_x is empty: there is no x to tune over")
    best: ExecutionPlan | None = None
    best_score = np.inf
    for x in candidate_x:
        if not 1 <= x <= max_x:
            raise PlanError(f"candidate x={x} outside [1, {max_x}]")
        chunk = base.block_size * x
        candidate = replace(
            base,
            values_per_thread=x,
            chunk_size=chunk,
            num_chunks=-(-n // chunk),
        )
        score = objective(candidate)
        if score < best_score:
            best, best_score = candidate, score
    if best is None:
        raise PlanError(
            "the objective scored every candidate x as inf or NaN; "
            "no plan is better than another"
        )
    return best
