"""Correction-factor tables and their structural analysis.

A :class:`CorrectionFactorTable` holds the k factor lists of length m
that Phase 1 and Phase 2 consume (Section 3, code section 1: "k constant
arrays of size m that are initialized with the correction factors").

The table also answers the structural questions the PLR optimizer asks
(Section 3.1):

* is a factor list constant?  (standard prefix sum: every factor is 1)
* does it contain only zeros and ones?  (tuple prefix sums)
* is it periodic?  (tuple prefix sums again: 0,1,0,1,... patterns)
* does it decay to exactly zero after some index?  (stable IIR filters,
  after flushing denormals to zero)
* is one list a one-position shift of another?  (first vs last carry
  list for k > 1; the paper lists suppressing one of them as future
  work, we implement it)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.nnacci import correction_factors
from repro.core.signature import Signature
from repro.core.ztransform import poles
from repro.obs.metrics import global_metrics

__all__ = ["CorrectionFactorTable", "FLOAT32_SMALLEST_NORMAL"]

FLOAT32_SMALLEST_NORMAL = float(np.finfo(np.float32).tiny)
"""Magnitudes below this are denormal in float32 and get flushed to 0.

The paper: "To speed up this effect, we flush denormal values to zero."
"""


@dataclass(frozen=True)
class CorrectionFactorTable:
    """The k-by-m table of precomputed correction factors.

    Row ``j`` multiplies carry ``w[m-1-j]`` (most recent carry first);
    column ``i`` corrects the element at offset ``i`` past a chunk
    border.  Rows are materialized once per (signature, m, dtype) and
    shared by Phase 1, Phase 2, the code generators, and the cost model.
    """

    signature: Signature
    chunk_size: int
    factors: np.ndarray  # shape (k, chunk_size)
    flushed_denormals: bool
    spectral_radius: float | None = None
    """Largest pole magnitude of the recursive signature (float tables
    only).  The factor lists are n-nacci runs, i.e. geometric sequences
    with this growth rate: for spectral radius rho > 1 the factors grow
    like rho^m and overflow float32 long before the paper's m = 11264
    chunk size."""
    overflow_risk: bool = False
    """True when the spectral radius predicts (or the built table
    contains) values beyond the dtype's finite range.  Integer tables
    never set this: they wrap around like the 32-bit CUDA arithmetic
    they model."""
    _width_rows: dict = field(default_factory=dict, repr=False, compare=False)
    """Memoized per-width factor prefixes; see :meth:`rows_for_width`."""
    _factor_plans: dict = field(default_factory=dict, repr=False, compare=False)
    """Memoized optimizer output per configuration; see
    :func:`repro.plr.optimizer.optimize_factors`."""

    @classmethod
    def build(
        cls,
        signature: Signature,
        chunk_size: int,
        dtype: np.dtype | type,
        flush_denormals: bool = True,
    ) -> "CorrectionFactorTable":
        """Generate the table for the recursive part of ``signature``.

        Integer tables wrap around like the 32-bit CUDA arithmetic the
        paper's generated code uses.  Floating-point tables optionally
        flush denormals to zero, which is what makes stable filters'
        factor tails *exactly* zero and enables the warp-skipping
        optimization.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
        recursive = signature.recursive_part()
        dtype = np.dtype(dtype)
        k = recursive.order
        table = np.empty((k, chunk_size), dtype=dtype)
        flushed = False
        radius: float | None = None
        overflow = False
        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            width = int(info.max) - int(info.min) + 1
            for j in range(k):
                exact = correction_factors(recursive, j, chunk_size)
                table[j, :] = [
                    ((int(v) - int(info.min)) % width) + int(info.min) for v in exact
                ]
        else:
            # Generate in float64 then cast, so that decay behaviour is
            # governed by the target precision, not by python floats.
            with np.errstate(over="ignore"):
                for j in range(k):
                    exact = correction_factors(recursive, j, chunk_size)
                    row = np.asarray([float(v) for v in exact], dtype=np.float64)
                    table[j, :] = row.astype(dtype)
            if flush_denormals and dtype == np.float32:
                mask = np.abs(table) < FLOAT32_SMALLEST_NORMAL
                if mask.any():
                    table[mask] = 0.0
                    flushed = True
            # Overflow prediction (resilience): factor row j is an
            # n-nacci run whose growth rate is the spectral radius, so
            # rho^(m-1) estimates the largest factor magnitude without
            # touching the (possibly already saturated) table values.
            radius = max((abs(p) for p in poles(recursive)), default=0.0)
            if radius > 1.0:
                log_peak = (chunk_size - 1) * math.log(radius)
                overflow = log_peak > math.log(float(np.finfo(dtype).max))
            if not overflow:
                overflow = not bool(np.isfinite(table).all())
        table.setflags(write=False)
        # Build accounting: every construction (cache misses, in
        # practice) is counted, and tables whose spectral radius
        # predicts float saturation are tallied separately so an
        # operator can spot overflow-prone signatures in a metrics
        # dump without scraping logs.
        registry = global_metrics()
        registry.counter("factor_table.builds").inc()
        if overflow:
            registry.counter("factor_table.overflow_risk").inc()
        if flushed:
            registry.counter("factor_table.flushed_denormals").inc()
        return cls(signature, chunk_size, table, flushed, radius, overflow)

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        return int(self.factors.shape[0])

    @property
    def dtype(self) -> np.dtype:
        return self.factors.dtype

    def row(self, carry_index: int) -> np.ndarray:
        """The factor list for carry ``w[m-1-carry_index]``."""
        return self.factors[carry_index]

    def rows_for_width(self, width: int) -> tuple[np.ndarray, ...]:
        """The factor prefixes ``factors[j, :width]`` for every carry
        that exists at this merge width (j < min(k, width)).

        Phase 1's doubling levels consume exactly these prefixes once
        per level; memoizing them here means ``merge_level`` re-slices
        nothing on the hot path — repeated solves under one table reuse
        the same read-only views.
        """
        rows = self._width_rows.get(width)
        if rows is None:
            rows = tuple(
                self.factors[j, :width] for j in range(min(self.order, width))
            )
            self._width_rows[width] = rows
        return rows

    # ------------------------------------------------------------------
    # Structural analyses feeding the Section 3.1 optimizations
    # ------------------------------------------------------------------
    def constant_value(self, carry_index: int) -> float | int | None:
        """The single value of a constant row, or None.

        "If it finds that all elements are identical within a
        correction-factor array, the array is suppressed and its
        accesses are replaced by the appropriate constant."
        """
        row = self.factors[carry_index]
        first = row[0]
        if np.all(row == first):
            return first.item()
        return None

    def is_zero_one(self, carry_index: int) -> bool:
        """True when every factor in the row is 0 or 1.

        "If all array elements are either zero or one, the code
        generator emits code to conditionally add the correction terms
        rather than multiplying them by the factors."
        """
        row = self.factors[carry_index]
        return bool(np.all((row == 0) | (row == 1)))

    MAX_PERIOD = 64
    """Longest repetition period the analysis looks for.  Real
    recurrences with periodic factors (tuple prefix sums, alternating
    signs) have tiny periods; bounding the search keeps the analysis
    O(MAX_PERIOD * m) instead of O(m^2) for the non-periodic rows."""

    def period(self, carry_index: int) -> int | None:
        """The smallest repetition period of the row, if any.

        "If the correction factors repeat, only the first 'repetition'
        is emitted."  A constant row has period 1; a row with no
        repetition (within :data:`MAX_PERIOD`) returns None.  The
        period need not divide the row length — ``row[i] == row[i-p]``
        for all i >= p is the test.
        """
        row = self.factors[carry_index]
        m = len(row)
        for p in range(1, min(self.MAX_PERIOD, m // 2) + 1):
            if np.array_equal(row[p:], row[:-p]):
                return p
        return None

    def decay_index(self, carry_index: int) -> int | None:
        """First index past which every factor is exactly zero.

        For stable IIR filters the factor lists are the (shifted)
        impulse response, which decays below float32 precision after a
        few hundred elements; with denormals flushed the tail becomes
        exactly zero and Phase 1 work for those positions can be
        skipped.  Returns None when the row never becomes all-zero
        (prefix sums), and 0 when the row is entirely zero.
        """
        row = self.factors[carry_index]
        nonzero = np.nonzero(row)[0]
        if len(nonzero) == 0:
            return 0
        last = int(nonzero[-1])
        if last == len(row) - 1:
            return None
        return last + 1

    @cached_property
    def max_decay_index(self) -> int | None:
        """Where *all* rows have decayed to zero, or None if any never does."""
        indices = [self.decay_index(j) for j in range(self.order)]
        if any(i is None for i in indices):
            return None
        return max(indices)  # type: ignore[type-var]

    def shifted_duplicate_rows(self) -> tuple[int, int] | None:
        """Detect the first/last-carry shift identity for k > 1.

        "The first and last correction-factor arrays always contain the
        same values except shifted by one position (for k > 1), so one
        of these two arrays could be suppressed" (Section 3.1, future
        work).  Returns the row pair (0, k-1) when row k-1 equals row 0
        shifted right by one position with the last feedback coefficient
        filling the hole, else None.

        Derivation: row 0 is the n-nacci run seeded 0,...,0,1 and row
        k-1 is seeded 1,0,...,0; both satisfy the same recurrence, and
        row_{k-1}[i] = b_k * row_0[i-1] for i >= 1 with
        row_{k-1}[0] = b_k.  We detect the scaled-shift relation for any
        b_k, which subsumes the paper's b_k = 1 pure-shift case.
        """
        if self.order < 2:
            return None
        first = self.factors[0]
        last = self.factors[self.order - 1]
        b_k = self.dtype.type(self.signature.feedback[-1])
        if last[0] != b_k:
            return None
        predicted = b_k * first[:-1]
        if np.issubdtype(self.dtype, np.integer):
            match = np.array_equal(last[1:], predicted)
        else:
            # The identity is exact in real arithmetic; the two float
            # evaluations differ by rounding only.  Code that derives
            # the suppressed row as b_k * first[i-1] at runtime stays
            # comfortably inside the paper's 1e-3 validation bound.
            eps = float(np.finfo(self.dtype).eps)
            scale = np.maximum(np.abs(last[1:]), 1.0)
            match = bool(np.all(np.abs(last[1:] - predicted) <= 64 * eps * scale))
        return (0, self.order - 1) if match else None

    def describe(self) -> str:
        """A short human-readable summary used by the CLI."""
        parts = []
        for j in range(self.order):
            props = []
            const = self.constant_value(j)
            if const is not None:
                props.append(f"constant={const}")
            elif self.is_zero_one(j):
                props.append("zero/one")
            p = self.period(j)
            if p is not None and const is None:
                props.append(f"period={p}")
            d = self.decay_index(j)
            if d is not None:
                props.append(f"decays@{d}")
            if not props:
                props.append("general")
            parts.append(f"carry {j}: " + ", ".join(props))
        return "; ".join(parts)
