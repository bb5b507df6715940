"""The streaming API: block-wise evaluation with carried state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import serial_full
from repro.core.signature import Signature
from repro.core.validation import assert_valid
from repro.plr.streaming import StreamingSolver
from tests.conftest import make_values


class TestEquivalence:
    """push()-ing blocks equals solving the concatenation."""

    def test_all_table1_random_splits(self, table1_recurrence, rng):
        total = make_values(table1_recurrence, 5000)
        expected = serial_full(total, table1_recurrence.signature)
        stream = StreamingSolver(table1_recurrence)
        cuts = sorted(set(rng.integers(1, 5000, 5).tolist()))
        out = stream.push_many(np.split(total, cuts))
        assert_valid(out, expected, context=str(table1_recurrence))

    def test_docstring_example(self):
        stream = StreamingSolver("(1: 1)")
        first = stream.push(np.array([1, 2, 3], dtype=np.int32))
        np.testing.assert_array_equal(first, [1, 3, 6])
        second = stream.push(np.array([4], dtype=np.int32))
        np.testing.assert_array_equal(second, [10])

    def test_single_element_blocks(self, rng):
        total = rng.integers(-9, 9, 50).astype(np.int32)
        stream = StreamingSolver("(1: 2, -1)")
        out = stream.push_many([total[i : i + 1] for i in range(50)])
        np.testing.assert_array_equal(
            out, serial_full(total, Signature.parse("(1: 2, -1)"))
        )

    def test_blocks_shorter_than_order(self, rng):
        # Order-3 recurrence fed 1- and 2-element blocks: the carry
        # state must splice old and new outputs correctly.
        total = rng.integers(-9, 9, 23).astype(np.int32)
        stream = StreamingSolver("(1: 0, 0, 1)")
        blocks = [total[0:1], total[1:3], total[3:4], total[4:23]]
        out = stream.push_many(blocks)
        np.testing.assert_array_equal(
            out, serial_full(total, Signature.parse("(1: 0, 0, 1)"))
        )

    def test_fir_history_across_boundary(self, rng):
        # High-pass filters reference prior *inputs*; a split right
        # after position 0 exercises the retained input history.
        total = rng.standard_normal(400).astype(np.float32)
        sig = Signature.parse("(0.9, -0.9: 0.8)")
        stream = StreamingSolver(sig)
        out = stream.push_many([total[:1], total[1:200], total[200:]])
        assert_valid(out, serial_full(total, sig))

    def test_empty_block_is_noop(self, rng):
        total = rng.integers(-9, 9, 30).astype(np.int32)
        stream = StreamingSolver("(1: 1)")
        a = stream.push(total[:10])
        empty = stream.push(np.array([], dtype=np.int32))
        assert empty.size == 0
        b = stream.push(total[10:])
        np.testing.assert_array_equal(
            np.concatenate([a, b]), np.cumsum(total, dtype=np.int32)
        )


class TestState:
    def test_checkpoint_resume(self, rng):
        total = rng.integers(-9, 9, 600).astype(np.int32)
        reference = StreamingSolver("(1: 2, -1)")
        expected = np.concatenate(
            [reference.push(total[:300]), reference.push(total[300:])]
        )

        first = StreamingSolver("(1: 2, -1)")
        head = first.push(total[:300])
        checkpoint = first.state

        second = StreamingSolver("(1: 2, -1)")
        second.load_state(checkpoint)
        tail = second.push(total[300:])
        np.testing.assert_array_equal(np.concatenate([head, tail]), expected)

    def test_state_is_a_copy(self, rng):
        stream = StreamingSolver("(1: 1)")
        stream.push(np.array([5], dtype=np.int32))
        snapshot = stream.state
        stream.push(np.array([7], dtype=np.int32))
        assert snapshot.outputs[0] == 5  # unaffected by later pushes

    def test_position_tracks_consumption(self, rng):
        stream = StreamingSolver("(1: 1)")
        stream.push(np.zeros(10, dtype=np.int32))
        stream.push(np.zeros(5, dtype=np.int32))
        assert stream.state.position == 15

    def test_reset(self, rng):
        total = rng.integers(-9, 9, 40).astype(np.int32)
        stream = StreamingSolver("(1: 1)")
        stream.push(total)
        stream.reset()
        out = stream.push(total)
        np.testing.assert_array_equal(out, np.cumsum(total, dtype=np.int32))

    def test_load_state_validates_shape(self):
        stream = StreamingSolver("(1: 2, -1)")
        other = StreamingSolver("(1: 1)")
        with pytest.raises(ValueError):
            stream.load_state(other.state)

    def test_load_state_errors_are_typed(self):
        from repro.core.errors import StateError

        stream = StreamingSolver("(1: 2, -1)")
        other = StreamingSolver("(1: 1)")
        with pytest.raises(StateError, match="outputs of shape"):
            stream.load_state(other.state)

    def test_load_state_rejects_uncastable_dtype(self):
        from repro.core.errors import StateError
        from repro.plr.streaming import StreamState

        stream = StreamingSolver("(1: 1)")  # int32 solver
        bad = StreamState(
            outputs=np.array([1.5], dtype=np.float64),
            inputs=np.zeros(0, dtype=np.int32),
        )
        with pytest.raises(StateError, match="dtype"):
            stream.load_state(bad)

    def test_load_state_rejects_nonfinite_carries(self):
        from repro.core.errors import StateError
        from repro.plr.streaming import StreamState

        stream = StreamingSolver("(0.2: 0.8)")
        bad = StreamState(
            outputs=np.array([np.nan], dtype=np.float32),
            inputs=np.zeros(0, dtype=np.float32),
        )
        with pytest.raises(StateError, match="non-finite"):
            stream.load_state(bad)

    def test_load_state_rejects_negative_position(self):
        from repro.core.errors import StateError
        from repro.plr.streaming import StreamState

        stream = StreamingSolver("(1: 1)")
        bad = StreamState(
            outputs=np.zeros(1, dtype=np.int32),
            inputs=np.zeros(0, dtype=np.int32),
            position=-3,
        )
        with pytest.raises(StateError, match="position"):
            stream.load_state(bad)

    def test_load_state_casts_compatible_dtype(self):
        """A same-kind checkpoint (int64 for an int32 solver) restores."""
        stream = StreamingSolver("(1: 1)")
        from repro.plr.streaming import StreamState

        stream.load_state(
            StreamState(
                outputs=np.array([5], dtype=np.int64),
                inputs=np.zeros(0, dtype=np.int64),
                position=1,
            )
        )
        out = stream.push(np.array([1], dtype=np.int32))
        assert out[0] == 6  # carry applied after the cast


class TestAPI:
    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            StreamingSolver("(1: 1)").push(np.zeros((2, 2), dtype=np.int32))

    def test_push_many_empty(self):
        out = StreamingSolver("(1: 1)").push_many([])
        assert out.size == 0

    def test_dtype_override(self, rng):
        stream = StreamingSolver("(1: 1)", dtype=np.int64)
        out = stream.push(rng.integers(0, 9, 10).astype(np.int64))
        assert out.dtype == np.int64


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 800),
    num_cuts=st.integers(0, 6),
)
def test_streaming_property(seed, n, num_cuts):
    """Any split of any sequence equals the one-shot solve."""
    gen = np.random.default_rng(seed)
    total = gen.integers(-9, 9, n).astype(np.int32)
    cuts = sorted(set(gen.integers(1, max(n, 2), num_cuts).tolist())) if num_cuts else []
    cuts = [c for c in cuts if c < n]
    sig = Signature.parse("(1: 2, -1)")
    stream = StreamingSolver(sig)
    out = stream.push_many(np.split(total, cuts))
    np.testing.assert_array_equal(out, serial_full(total, sig))


class TestStateRestoreRegressions:
    """load_state / StreamState.copy hardening: value-preserving casts,
    no aliasing of caller arrays, integral positions."""

    def test_load_state_rejects_wrapping_integers(self):
        # Regression: int64 2**40 "same-kind" cast into an int32 solver
        # silently wrapped to 0 and corrupted every later block.
        from repro.core.errors import StateError
        from repro.plr.streaming import StreamState

        stream = StreamingSolver("(1: 2, -1)")
        state = StreamState(
            outputs=np.array([2**40, 1], dtype=np.int64),
            inputs=np.zeros(0, dtype=np.int32),
        )
        with pytest.raises(StateError, match="without wrapping"):
            stream.load_state(state)

    def test_load_state_rejects_float_overflowing_carries(self):
        from repro.core.errors import StateError
        from repro.plr.streaming import StreamState

        stream = StreamingSolver("(0.2: 0.8)")  # float32 solver
        state = StreamState(
            outputs=np.array([1e300], dtype=np.float64),
            inputs=np.zeros(0, dtype=np.float32),
        )
        with pytest.raises(StateError, match="overflow"):
            stream.load_state(state)

    def test_load_state_rejects_fractional_position(self):
        # Regression: position 2.5 silently truncated to 2, silently
        # shifting the bookkeeping of every checkpoint after it.
        from repro.core.errors import StateError
        from repro.plr.streaming import StreamState

        stream = StreamingSolver("(1: 1)")
        state = StreamState(
            outputs=np.zeros(1, dtype=np.int32),
            inputs=np.zeros(0, dtype=np.int32),
            position=2.5,
        )
        with pytest.raises(StateError, match="integer"):
            stream.load_state(state)

    def test_load_state_does_not_alias_caller_arrays(self, rng):
        from repro.plr.streaming import StreamState

        stream = StreamingSolver("(1: 2, -1)")
        carries = np.array([5, 7], dtype=np.int32)
        stream.load_state(
            StreamState(outputs=carries, inputs=np.zeros(0, dtype=np.int32))
        )
        before = stream.state.outputs.copy()
        carries[:] = -999  # mutating the checkpoint must not leak in
        np.testing.assert_array_equal(stream.state.outputs, before)
        out_with_clean_state = stream.push(np.array([1, 1, 1], dtype=np.int32))
        fresh = StreamingSolver("(1: 2, -1)")
        fresh.load_state(
            StreamState(
                outputs=np.array([5, 7], dtype=np.int32),
                inputs=np.zeros(0, dtype=np.int32),
            )
        )
        np.testing.assert_array_equal(
            out_with_clean_state, fresh.push(np.array([1, 1, 1], dtype=np.int32))
        )

    def test_copy_materializes_plain_sequences(self):
        # Regression: a checkpoint deserialized from JSON carries lists,
        # and StreamState.copy() used to assume .copy() existed on them.
        from repro.plr.streaming import StreamState

        state = StreamState(outputs=[1, 2], inputs=[], position=3)
        duplicate = state.copy()
        assert isinstance(duplicate.outputs, np.ndarray)
        assert isinstance(duplicate.inputs, np.ndarray)
        np.testing.assert_array_equal(duplicate.outputs, [1, 2])
        assert duplicate.position == 3

    def test_copy_is_deep(self):
        from repro.plr.streaming import StreamState

        state = StreamState(
            outputs=np.array([1, 2], dtype=np.int32),
            inputs=np.zeros(0, dtype=np.int32),
        )
        duplicate = state.copy()
        duplicate.outputs[0] = 99
        assert state.outputs[0] == 1


class TestBatchStreamingSolver:
    def test_rows_match_dedicated_streams(self, rng):
        from repro.plr.streaming import BatchStreamingSolver

        sig = "(1: 2, -1)"
        batch = BatchStreamingSolver(sig, batch_size=4)
        singles = [StreamingSolver(sig) for _ in range(4)]
        for block_len in (7, 1, 16, 3):
            blocks = rng.integers(-9, 9, size=(4, block_len)).astype(np.int32)
            out = batch.push(blocks)
            for row in range(4):
                np.testing.assert_array_equal(out[row], singles[row].push(blocks[row]))

    def test_fir_history_rows_match(self, rng):
        from repro.plr.streaming import BatchStreamingSolver

        sig = "(0.5, 0.5: 0.9)"
        batch = BatchStreamingSolver(sig, batch_size=3)
        singles = [StreamingSolver(sig) for _ in range(3)]
        for block_len in (5, 2, 9):
            blocks = rng.standard_normal((3, block_len)).astype(np.float32)
            out = batch.push(blocks)
            for row in range(3):
                np.testing.assert_allclose(
                    out[row], singles[row].push(blocks[row]), rtol=1e-5, atol=1e-6
                )

    def test_state_round_trip(self, rng):
        from repro.plr.streaming import BatchStreamingSolver

        solver = BatchStreamingSolver("(1: 1)", batch_size=2)
        solver.push(np.array([[1, 2], [3, 4]], dtype=np.int32))
        saved = solver.state
        after_more = solver.push(np.array([[5], [6]], dtype=np.int32))
        solver.load_state(saved)
        np.testing.assert_array_equal(
            solver.push(np.array([[5], [6]], dtype=np.int32)), after_more
        )

    def test_load_state_validates_batched_shapes(self):
        from repro.core.errors import StateError
        from repro.plr.streaming import BatchStreamingSolver, StreamState

        solver = BatchStreamingSolver("(1: 2, -1)", batch_size=2)
        with pytest.raises(StateError, match="shape"):
            solver.load_state(
                StreamState(
                    outputs=np.zeros((3, 2), dtype=np.int32),
                    inputs=np.zeros((2, 0), dtype=np.int32),
                )
            )
        with pytest.raises(StateError, match="without wrapping"):
            solver.load_state(
                StreamState(
                    outputs=np.full((2, 2), 2**40, dtype=np.int64),
                    inputs=np.zeros((2, 0), dtype=np.int32),
                )
            )

    def test_empty_block_is_noop(self):
        from repro.plr.streaming import BatchStreamingSolver

        solver = BatchStreamingSolver("(1: 1)", batch_size=2)
        out = solver.push(np.zeros((2, 0), dtype=np.int32))
        assert out.shape == (2, 0)
        assert solver.state.position == 0


class TestCoefficientCheck:
    """A stream checks its coefficients against the working dtype, as
    every other entry point does, instead of truncating them."""

    @staticmethod
    def solo_message() -> str:
        from repro.core.errors import NumericalError
        from repro.plr.solver import PLRSolver

        with pytest.raises(NumericalError) as raised:
            PLRSolver("(0.5: 1)").solve(np.arange(6, dtype=np.int32), dtype=np.int32)
        return str(raised.value)

    def test_stream_rejects_a_fractional_map_coefficient_in_int32(self):
        from repro.core.errors import NumericalError

        stream = StreamingSolver("(0.5: 1)", dtype=np.int32)
        with pytest.raises(NumericalError) as raised:
            stream.push(np.arange(6, dtype=np.int32))
        assert str(raised.value) == self.solo_message()

    def test_batch_stream_rejects_a_fractional_map_coefficient_in_int32(self):
        from repro.core.errors import NumericalError
        from repro.plr.streaming import BatchStreamingSolver

        streams = BatchStreamingSolver("(0.5: 1)", batch_size=2, dtype=np.int32)
        with pytest.raises(NumericalError) as raised:
            streams.push(np.arange(12, dtype=np.int32).reshape(2, 6))
        assert str(raised.value) == self.solo_message()
