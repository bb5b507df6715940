"""The domain-specific optimizations of Section 3.1.

PLR's "most important optimizations pertain to the correction factors":

* **shared-memory buffering** — the first 1024 factors of each list are
  cached in shared memory; merging starts with small chunks, so early
  (hot) factors always hit the buffer;
* **constant folding** — a factor list whose elements are all identical
  is replaced by a literal constant (standard prefix sum: all 1s);
* **zero/one conditional add** — lists containing only 0s and 1s use a
  conditional add instead of a multiply-add (tuple prefix sums);
* **repetition folding** — periodic lists are stored once per period;
* **decay truncation** — for stable IIR filters, factors decay below
  float32 precision; denormals are flushed to zero and whole warps
  whose factors are all zero skip their Phase 1 work;
* **term suppression** — corrections that would reference elements
  before the start of a chunk are never emitted (this one lives in
  :func:`repro.plr.phase1.merge_level` and the code generators).

The optimizer is an *analysis*: it inspects a
:class:`~repro.plr.factors.CorrectionFactorTable` and produces a
:class:`FactorPlan` describing how each factor list should be realized.
The code generators and the cost model consume the same plan, so
"optimizations on" means the same thing in both — including for
Figure 10, which toggles them off via :class:`OptimizationConfig`.

The numpy solver records the plan on its artifacts but does not consume
it.  It applies decay truncation and constant folding directly from the
table (:meth:`~repro.plr.factors.CorrectionFactorTable.rows_for_width`,
:attr:`~repro.plr.factors.CorrectionFactorTable.row_extents`,
:attr:`~repro.plr.factors.CorrectionFactorTable.unit_rows`): every
merge and correction stops at a row's exact-zero tail, and all-ones
rows add their carry without a multiply.  Neither changes a finite
result, so neither is configurable there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.plr.factors import CorrectionFactorTable

__all__ = [
    "FactorRealization",
    "FactorDecision",
    "FactorPlan",
    "OptimizationConfig",
    "optimize_factors",
    "SHARED_MEMORY_FACTOR_CAPACITY",
]

SHARED_MEMORY_FACTOR_CAPACITY = 1024
"""Factors per list buffered in shared memory (Section 3.1)."""


class FactorRealization(enum.Enum):
    """How the generated code obtains one factor list's values."""

    GLOBAL_ARRAY = "global_array"  # unoptimized: loads from main memory
    BUFFERED_ARRAY = "buffered_array"  # first 1024 cached in shared memory
    CONSTANT = "constant"  # replaced by a literal
    ZERO_ONE = "zero_one"  # conditional add, no multiply
    PERIODIC = "periodic"  # only the first period stored
    TRUNCATED = "truncated"  # zero tail suppressed (decayed filter)
    SHIFT_OF_FIRST = "shift_of_first"  # scaled shift of factor list 0


@dataclass(frozen=True)
class FactorDecision:
    """The realization chosen for a single carry's factor list."""

    carry_index: int
    realization: FactorRealization
    constant: float | int | None = None  # for CONSTANT
    period: int | None = None  # for PERIODIC
    cutoff: int | None = None  # for TRUNCATED: first all-zero index
    scale: float | int | None = None  # for SHIFT_OF_FIRST

    @property
    def stored_elements(self) -> int | None:
        """How many factor values this realization keeps in memory.

        None means "the full list" (the caller knows m); the cost model
        and the memory accounting use this to size the constant arrays.
        """
        if self.realization in (FactorRealization.CONSTANT, FactorRealization.SHIFT_OF_FIRST):
            return 0
        if self.realization == FactorRealization.PERIODIC:
            return self.period
        if self.realization == FactorRealization.ZERO_ONE and self.period is not None:
            return self.period
        if self.realization == FactorRealization.TRUNCATED:
            return self.cutoff
        return None


@dataclass(frozen=True)
class OptimizationConfig:
    """Which Section 3.1 optimizations are enabled.

    ``OptimizationConfig()`` is the paper's "optimizations on";
    :meth:`disabled` is Figure 10's "optimizations off": factors are
    "always loaded from global memory and no special code is emitted
    for factors that are constants, only zero or one, repeat, or decay
    to zero after a certain point."
    """

    buffer_in_shared: bool = True
    fold_constants: bool = True
    zero_one_conditional: bool = True
    fold_repeats: bool = True
    truncate_decayed: bool = True
    suppress_shifted_duplicate: bool = False
    """Off by default: the paper lists this as future work; we implement
    it as an extension and benchmark it separately."""

    @classmethod
    def disabled(cls) -> "OptimizationConfig":
        return cls(
            buffer_in_shared=False,
            fold_constants=False,
            zero_one_conditional=False,
            fold_repeats=False,
            truncate_decayed=False,
            suppress_shifted_duplicate=False,
        )

    @classmethod
    def extended(cls) -> "OptimizationConfig":
        """All paper optimizations plus the future-work extensions."""
        return cls(suppress_shifted_duplicate=True)


@dataclass(frozen=True)
class FactorPlan:
    """The optimizer's output: one decision per carry plus globals.

    Attributes
    ----------
    decisions:
        One :class:`FactorDecision` per carry, in carry order.
    shared_buffer_elements:
        Factors per surviving list to stage in shared memory.
    phase1_active_elements:
        How many elements of each merge level actually need correcting;
        equals the chunk size unless decay truncation kicked in.  The
        generated code skips whole warps past this point.
    """

    table: CorrectionFactorTable
    config: OptimizationConfig
    decisions: tuple[FactorDecision, ...]
    shared_buffer_elements: int
    phase1_active_elements: int

    @property
    def uses_multiplies(self) -> bool:
        """False when every correction is a conditional add."""
        return any(
            d.realization
            not in (FactorRealization.ZERO_ONE, FactorRealization.CONSTANT)
            or (d.realization == FactorRealization.CONSTANT and d.constant not in (0, 1))
            for d in self.decisions
        )

    def stored_factor_words(self) -> int:
        """Total factor values materialized across all lists.

        Feeds the GPU memory accounting (Table 2) and the cost model's
        factor-load traffic term.
        """
        m = self.table.chunk_size
        total = 0
        for d in self.decisions:
            stored = d.stored_elements
            total += m if stored is None else stored
        return total

    def decision(self, carry_index: int) -> FactorDecision:
        return self.decisions[carry_index]


def _decide_one(
    table: CorrectionFactorTable,
    config: OptimizationConfig,
    carry_index: int,
    shifted_pair: tuple[int, int] | None,
) -> FactorDecision:
    """Pick the best realization for one factor list.

    Precedence: a constant beats everything (no storage, no load); the
    shifted-duplicate suppression beats per-list encodings (no storage);
    zero/one beats periodic (it also kills the multiply); periodic and
    truncated then shrink storage.
    """
    if config.fold_constants:
        const = table.constant_value(carry_index)
        if const is not None:
            return FactorDecision(
                carry_index, FactorRealization.CONSTANT, constant=const
            )
    if (
        config.suppress_shifted_duplicate
        and shifted_pair is not None
        and carry_index == shifted_pair[1]
    ):
        return FactorDecision(
            carry_index,
            FactorRealization.SHIFT_OF_FIRST,
            scale=table.signature.feedback[-1],
        )
    if config.zero_one_conditional and table.is_zero_one(carry_index):
        # Keep the period (if any): a periodic 0/1 pattern needs no
        # factor loads at all — the condition is an index computation.
        period = table.period(carry_index) if config.fold_repeats else None
        return FactorDecision(
            carry_index, FactorRealization.ZERO_ONE, period=period
        )
    if config.fold_repeats:
        period = table.period(carry_index)
        if period is not None:
            return FactorDecision(
                carry_index, FactorRealization.PERIODIC, period=period
            )
    if config.truncate_decayed:
        cutoff = table.decay_index(carry_index)
        if cutoff is not None:
            return FactorDecision(
                carry_index, FactorRealization.TRUNCATED, cutoff=cutoff
            )
    if config.buffer_in_shared:
        return FactorDecision(carry_index, FactorRealization.BUFFERED_ARRAY)
    return FactorDecision(carry_index, FactorRealization.GLOBAL_ARRAY)


def optimize_factors(
    table: CorrectionFactorTable,
    config: OptimizationConfig | None = None,
) -> FactorPlan:
    """Analyze a factor table and choose a realization per carry.

    The plan is memoized on the table, keyed by the (frozen) config:
    both are immutable, and the analysis — the period scan alone makes
    up to ``MAX_PERIOD`` row comparisons per carry — would otherwise
    dominate every short solve.
    """
    if config is None:
        config = OptimizationConfig()
    plan = table._factor_plans.get(config)
    if plan is None:
        plan = table._factor_plans[config] = _analyze(table, config)
    return plan


def _analyze(
    table: CorrectionFactorTable, config: OptimizationConfig
) -> FactorPlan:
    shifted = table.shifted_duplicate_rows() if config.suppress_shifted_duplicate else None
    decisions = tuple(
        _decide_one(table, config, j, shifted) for j in range(table.order)
    )

    shared = (
        min(SHARED_MEMORY_FACTOR_CAPACITY, table.chunk_size)
        if config.buffer_in_shared
        else 0
    )

    if config.truncate_decayed and table.max_decay_index is not None:
        active = max(1, table.max_decay_index)
    else:
        active = table.chunk_size

    return FactorPlan(
        table=table,
        config=config,
        decisions=decisions,
        shared_buffer_elements=shared,
        phase1_active_elements=min(active, table.chunk_size),
    )
