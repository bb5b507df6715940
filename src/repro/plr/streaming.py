"""Streaming recurrence evaluation: carry state across block boundaries.

The paper's kernel processes one resident array.  Real DSP and
data-pipeline users rarely have that luxury: audio arrives in buffers,
logs in batches, and the recurrence must continue *seamlessly* across
them.  The algebra PLR already uses makes this nearly free — a block
boundary is just another chunk border, so the state to carry is the
last k outputs, and the incoming state corrects a new block through
the same precomputed factor table.

:class:`BatchStreamingSolver` does exactly that for B streams of one
signature at once, and :class:`StreamingSolver` is its one-row case:

* ``push`` computes the recurrence over the next block of every stream
  as if it were appended to everything pushed before, in O(block)
  work: the block is solved from zero history through
  :func:`~repro.plr.nd.solve_batch`, and the incoming carries are
  folded in through the factor table;
* the FIR map stage is also made seamless by retaining the last p
  *inputs* across the boundary;
* ``state`` exposes (and ``load_state`` restores) the k-output /
  p-input boundary state, so pipelines can checkpoint and resume.

Equivalence with the one-shot solver over the concatenated input is a
tested invariant for every Table 1 recurrence and random block splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import StateError
from repro.core.recurrence import Recurrence
from repro.core.signature import Signature
from repro.plr.factors import CorrectionFactorTable
from repro.plr.nd import solve_batch
# cached_factor_table stays importable here: the benchmark's traced run
# wraps it by attribute on this module.
from repro.plr.solver import cached_factor_table

__all__ = ["StreamState", "StreamingSolver", "BatchStreamingSolver"]


@dataclass
class StreamState:
    """The boundary state between two streamed blocks.

    Attributes
    ----------
    outputs:
        The last k outputs, most recent first — the recurrence carries.
    inputs:
        The last p raw inputs, most recent first — needed by the FIR
        map stage of signatures with feed-forward history.
    position:
        How many values have been consumed so far (for bookkeeping).
    """

    outputs: np.ndarray
    inputs: np.ndarray
    position: int = 0

    def copy(self) -> "StreamState":
        """An independent deep copy; mutating one never affects the other.

        States deserialized from checkpoints may carry plain sequences
        instead of arrays, so the fields are materialized as fresh numpy
        arrays rather than trusting a ``.copy()`` method to exist.
        """
        return StreamState(
            np.array(self.outputs, copy=True),
            np.array(self.inputs, copy=True),
            int(self.position),
        )


class BatchStreamingSolver:
    """B independent streams of one signature, advanced in lock step.

    Carries a ``(B, k)`` output-history matrix (plus a ``(B, p)``
    input-history matrix for FIR signatures) and consumes
    ``(B, block)`` matrices, so B concurrent sessions pay the Python
    dispatch and the factor-table lookup once per push instead of once
    per stream.  :class:`StreamingSolver` is the one-row case.

    Semantics: stream b behaves exactly like its own
    :class:`StreamingSolver` fed row b of every pushed matrix — a
    tested invariant.

    Example
    -------
    >>> import numpy as np
    >>> streams = BatchStreamingSolver("(1: 1)", batch_size=2)
    >>> streams.push(np.array([[1, 2], [10, 20]], dtype=np.int32)).tolist()
    [[1, 3], [10, 30]]
    >>> streams.push(np.array([[3], [30]], dtype=np.int32)).tolist()
    [[6], [60]]
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        batch_size: int,
        dtype: np.dtype | type | None = None,
    ) -> None:
        recurrence = Recurrence.coerce(recurrence)
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        self.recurrence = recurrence
        self.batch_size = batch_size
        if dtype is None:
            dtype = np.int32 if recurrence.is_integer else np.float32
        self.dtype = np.dtype(dtype)
        self._order = recurrence.order
        self._fir_order = recurrence.signature.fir_order
        # The stream owns the map stage (it needs input history across
        # boundaries), so each block is solved as the pure-recursive
        # part — otherwise the FIR stage would run twice.
        self._recursive = Recurrence(recurrence.recursive_signature)
        self.reset()

    # ------------------------------------------------------------------
    @property
    def state(self) -> StreamState:
        """Snapshot of the (B, k) output / (B, p) input state matrices."""
        return StreamState(
            self._outputs.copy(), self._inputs.copy(), self._position
        )

    def load_state(self, state: StreamState) -> None:
        """Resume all B streams from a captured :attr:`state`.

        The state usually comes from the outside world (a checkpoint
        file, another process), so it is validated before it can poison
        every subsequent block: wrong shapes, dtypes that cannot be
        cast safely, non-finite carries, casts that wrap or overflow,
        and non-integer or negative positions all raise
        :class:`~repro.core.errors.StateError` (a :class:`ValueError`
        subclass).
        """
        outputs = np.asarray(state.outputs)
        inputs = np.asarray(state.inputs)
        expect_out = (self.batch_size, self._order)
        expect_in = (self.batch_size, max(self._fir_order, 0))
        if outputs.shape != expect_out:
            raise StateError(
                f"state carries outputs of shape {outputs.shape}, "
                f"batch solver needs {expect_out}"
            )
        if inputs.shape != expect_in:
            raise StateError(
                f"state carries inputs of shape {inputs.shape}, "
                f"batch solver needs {expect_in}"
            )
        restored = []
        for name, array in (("outputs", outputs), ("inputs", inputs)):
            if not np.can_cast(array.dtype, self.dtype, casting="same_kind"):
                raise StateError(
                    f"state {name} dtype {array.dtype} cannot be cast to "
                    f"the solver's {self.dtype} (same-kind rule)"
                )
            if np.issubdtype(array.dtype, np.floating) and not np.isfinite(array).all():
                raise StateError(
                    f"state {name} contain non-finite values; restoring them "
                    f"would silently corrupt every later block"
                )
            # astype(copy=True) both detaches from the caller's buffer
            # (mutating the checkpoint afterwards must not change solver
            # behaviour) and materializes the solver's dtype.  Same-kind
            # casting still wraps out-of-range integers (2**40 -> int32
            # becomes 0) and overflows floats to inf, so verify the cast
            # preserved every carry value instead of trusting it.
            with np.errstate(over="ignore", invalid="ignore"):
                cast = array.astype(self.dtype, copy=True)
            if np.issubdtype(self.dtype, np.integer):
                if array.size and not np.array_equal(
                    cast.astype(np.int64, copy=False),
                    array.astype(np.int64, copy=False),
                ):
                    raise StateError(
                        f"state {name} values do not fit the solver's "
                        f"{self.dtype} without wrapping"
                    )
            elif array.size and not np.isfinite(cast).all():
                raise StateError(
                    f"state {name} values overflow the solver's {self.dtype}"
                )
            restored.append(cast)
        position = state.position
        if isinstance(position, float) and not position.is_integer():
            raise StateError(f"state position must be an integer, got {position}")
        if position < 0:
            raise StateError(f"state position must be >= 0, got {position}")
        self._outputs, self._inputs = restored
        self._position = int(position)

    def reset(self) -> None:
        """Forget all history on every stream."""
        self._outputs = np.zeros((self.batch_size, self._order), dtype=self.dtype)
        self._inputs = np.zeros(
            (self.batch_size, max(self._fir_order, 0)), dtype=self.dtype
        )
        self._position = 0

    # ------------------------------------------------------------------
    def _map_with_history(self, blocks: np.ndarray) -> np.ndarray:
        """The FIR stage (2) over the blocks, seeing prior raw inputs."""
        if not self.recurrence.has_map_stage:
            return blocks
        extended = np.concatenate([self._inputs[:, ::-1], blocks], axis=1)
        return self.recurrence.apply_map_stage(extended)[:, self._fir_order :]

    def push(self, blocks: np.ndarray) -> np.ndarray:
        """Advance every stream by one ``(B, block)`` matrix of values.

        Semantics: row b is identical to solving the concatenation of
        every row b pushed so far and returning the slice for this
        block.
        """
        blocks = np.asarray(blocks)
        if blocks.ndim != 2 or blocks.shape[0] != self.batch_size:
            raise ValueError(
                f"expected a ({self.batch_size}, block) matrix, got shape "
                f"{blocks.shape}"
            )
        bn = blocks.shape[1]
        if bn == 0:
            return blocks.astype(self.dtype)
        blocks = blocks.astype(self.dtype, copy=False)

        mapped = self._map_with_history(blocks)
        # Solve all rows as standalone sequences, then fold in each
        # stream's incoming carries through the shared factor rows —
        # the same cross-border correction Phase 2 applies, vectorized
        # over the batch axis.
        out = solve_batch(mapped, self._recursive, dtype=self.dtype)
        k = self._order
        if np.any(self._outputs != 0):
            _fold_carries(out, self._outputs, self._factor_table(bn))

        new_outputs = np.zeros((self.batch_size, k), dtype=self.dtype)
        take = min(k, bn)
        new_outputs[:, :take] = out[:, bn - take : bn][:, ::-1]
        if take < k:
            # Short block: older carries shift forward from prior state.
            new_outputs[:, take:] = self._outputs[:, : k - take]
        p = self._fir_order
        if p:
            new_inputs = np.zeros((self.batch_size, p), dtype=self.dtype)
            take_in = min(p, bn)
            new_inputs[:, :take_in] = blocks[:, bn - take_in : bn][:, ::-1]
            if take_in < p:
                new_inputs[:, take_in:] = self._inputs[:, : p - take_in]
            self._inputs = new_inputs
        self._outputs = new_outputs
        self._position += bn
        return out

    def _factor_table(self, length: int) -> CorrectionFactorTable:
        # Round the table length up to limit cache churn across
        # variable block sizes; the table itself comes from the shared
        # process-wide LRU.
        size = max(64, 1 << (length - 1).bit_length())
        return cached_factor_table(
            self.recurrence.recursive_signature, size, self.dtype
        )


class StreamingSolver(BatchStreamingSolver):
    """Evaluate a recurrence over an unbounded stream, block by block.

    The one-row case of :class:`BatchStreamingSolver`, with a 1-D API:
    blocks are 1-D, and :attr:`state` holds ``(k,)`` outputs and
    ``(p,)`` inputs.

    Parameters
    ----------
    recurrence:
        The recurrence (or signature string) to stream.
    dtype:
        Computation dtype; defaults to the paper's convention (int32
        for integer signatures, float32 otherwise).

    Example
    -------
    >>> import numpy as np
    >>> stream = StreamingSolver("(1: 1)")
    >>> stream.push(np.array([1, 2, 3], dtype=np.int32)).tolist()
    [1, 3, 6]
    >>> stream.push(np.array([4], dtype=np.int32)).tolist()
    [10]
    """

    def __init__(
        self,
        recurrence: Recurrence | Signature | str,
        dtype: np.dtype | type | None = None,
    ) -> None:
        super().__init__(recurrence, batch_size=1, dtype=dtype)

    @property
    def state(self) -> StreamState:
        """A snapshot of the boundary state (copy; safe to stash)."""
        return StreamState(
            self._outputs[0].copy(), self._inputs[0].copy(), self._position
        )

    def load_state(self, state: StreamState) -> None:
        """Resume from a previously captured :attr:`state`.

        Requires ``(k,)`` outputs and ``(p,)`` inputs, then validates
        them as :meth:`BatchStreamingSolver.load_state` does.
        """
        outputs = np.asarray(state.outputs)
        inputs = np.asarray(state.inputs)
        if outputs.shape != (self._order,):
            raise StateError(
                f"state carries outputs of shape {outputs.shape}, "
                f"recurrence needs ({self._order},)"
            )
        if inputs.shape != (max(self._fir_order, 0),):
            raise StateError(
                f"state carries inputs of shape {inputs.shape}, "
                f"map stage needs ({max(self._fir_order, 0)},)"
            )
        super().load_state(
            StreamState(outputs[None, :], inputs[None, :], state.position)
        )

    # Defined here rather than inherited: the benchmark's traced run
    # wraps StreamingSolver.push by this class's own attribute.
    def push(self, block: np.ndarray) -> np.ndarray:
        """Process the next block; returns its recurrence outputs.

        Semantics: identical to solving the concatenation of every
        block pushed so far and returning the slice for this block.
        """
        block = np.asarray(block)
        if block.ndim != 1:
            raise ValueError(f"expected a 1D block, got shape {block.shape}")
        return super().push(block[None, :])[0]

    def push_many(self, blocks) -> np.ndarray:
        """Convenience: push an iterable of blocks, concatenate outputs."""
        outputs = [self.push(b) for b in blocks]
        if not outputs:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate(outputs)


def _fold_carries(
    local: np.ndarray, carries: np.ndarray, table: CorrectionFactorTable
) -> None:
    """Add ``F_j[i] * carries[..., j]`` to a freshly solved block, in place.

    ``local`` is the (..., n) zero-history solution of the block and
    ``carries`` the (..., k) outputs preceding it, most recent first.
    Carry j touches only the first ``row_extents[j]`` words, where its
    factor row is not exactly zero, and an all-ones row adds the carry
    without a multiply — the same cut rows Phase 2 corrects with.  Zero
    carries (every stream's, in a batch) are skipped.
    """
    n = local.shape[-1]
    for j in range(carries.shape[-1]):
        carry = carries[..., j, None]
        if not np.any(carry):
            continue
        target = local[..., : min(n, table.row_extents[j])]
        if table.unit_rows[j]:
            target += carry
        else:
            target += table.factors[j, : target.shape[-1]] * carry
