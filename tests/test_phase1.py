"""Phase 1: iterative pairwise merging and its invariants."""

import dataclasses
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import table1_signatures
from repro.core.reference import serial_full, serial_recurrence
from repro.core.signature import Signature
from repro.core.validation import compare_results
from repro.obs.tracer import Tracer
from repro.plr.factors import CorrectionFactorTable
from repro.plr.phase1 import (
    doubling_widths,
    lane_width,
    merge_level,
    phase1,
    phase1_inplace,
    phase1_scratch,
    segment_carries,
    segment_width,
    thread_local_solve,
)
from repro.plr.phase2 import propagate_carries
from repro.plr.solver import PLRSolver

PAPER_INPUT = np.array(
    [3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14, 15, -16, 17, -18, 19, -20, 21, -22],
    dtype=np.int32,
)


def run_phase1(text: str, values: np.ndarray, m: int, x: int = 1) -> np.ndarray:
    sig = Signature.parse(text)
    table = CorrectionFactorTable.build(sig, m, values.dtype)
    chunks = -(-values.size // m)
    padded = np.zeros(chunks * m, dtype=values.dtype)
    padded[:values.size] = values
    return phase1(padded, table, x)


class TestPaperWorkedExample:
    """Section 2.3's intermediate sequences, byte for byte."""

    def test_final_phase1_state(self):
        out = run_phase1("(1: 2, -1)", PAPER_INPUT, 8).reshape(-1)[:20]
        expected = [3, 2, 6, 4, 9, 6, 12, 8, 11, 10, 22, 20, 33, 30, 44, 40, 19, 18, 38, 36]
        np.testing.assert_array_equal(out, expected)

    def test_iteration_one(self):
        # "3 2 5 4 7 6 9 8 ..." after the first merge (chunk size 2).
        out = run_phase1("(1: 2, -1)", PAPER_INPUT[:8], 2).reshape(-1)
        np.testing.assert_array_equal(out, [3, 2, 5, 4, 7, 6, 9, 8])

    def test_iteration_two(self):
        # "3 2 6 4 7 6 14 12 ..." after the second merge (chunk size 4).
        out = run_phase1("(1: 2, -1)", PAPER_INPUT[:8], 4).reshape(-1)
        np.testing.assert_array_equal(out, [3, 2, 6, 4, 7, 6, 14, 12])


class TestInvariants:
    @pytest.mark.parametrize("text", ["(1: 1)", "(1: 2, -1)", "(1: 0, 1)", "(1: 1, 1)"])
    def test_first_chunk_is_globally_correct(self, text, rng):
        values = rng.integers(-50, 50, 64).astype(np.int32)
        out = run_phase1(text, values, 16)
        sig = Signature.parse(text)
        expected = serial_recurrence(values[:16], list(sig.feedback))
        np.testing.assert_array_equal(out[0], expected)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32])
    def test_each_chunk_locally_correct(self, m, rng):
        # Every chunk equals the serial solution of its own slice —
        # the definition of Phase 1's output.
        values = rng.integers(-20, 20, m * 4).astype(np.int32)
        out = run_phase1("(1: 2, -1)", values, m)
        for c in range(4):
            piece = values[c * m : (c + 1) * m]
            np.testing.assert_array_equal(
                out[c], serial_recurrence(piece, [2, -1]), err_msg=f"chunk {c}"
            )

    def test_doubling_invariant_prefix_correct(self, rng):
        # "after iteration s, the first 2^s elements are correct."
        values = rng.integers(-9, 9, 64).astype(np.int64)
        sig = Signature.parse("(1: 1, 1)")
        for m in (2, 4, 8, 16, 32, 64):
            out = run_phase1("(1: 1, 1)", values, m).reshape(-1)
            expected = serial_recurrence(values, [1, 1])
            np.testing.assert_array_equal(out[:m], expected[:m], err_msg=f"m={m}")

    def test_phase1_does_not_modify_input(self, rng):
        values = rng.integers(-9, 9, 32).astype(np.int32)
        sig = Signature.parse("(1: 1)")
        table = CorrectionFactorTable.build(sig, 8, np.int32)
        snapshot = values.copy()
        phase1(values, table, 1)
        np.testing.assert_array_equal(values, snapshot)


class TestThreadLocalStep:
    @pytest.mark.parametrize("x", [2, 3, 4, 9, 11])
    def test_equals_serial_per_cell(self, x, rng):
        values = rng.integers(-9, 9, x * 6).astype(np.int32)
        cells = values.reshape(6, x).copy()
        thread_local_solve(cells, [2, -1], x)
        for row in range(6):
            np.testing.assert_array_equal(
                cells[row], serial_recurrence(values.reshape(6, x)[row], [2, -1])
            )

    def test_x_equal_one_with_phase1(self, rng):
        # x = 1 must behave as if there were no thread-local step.
        values = rng.integers(-9, 9, 32).astype(np.int32)
        a = run_phase1("(1: 2, -1)", values, 8, x=1)
        b = run_phase1("(1: 2, -1)", values, 8, x=2)
        np.testing.assert_array_equal(a, b)


class TestDoublingWidths:
    def test_power_of_two(self):
        assert doubling_widths(1, 8) == [1, 2, 4]

    def test_with_thread_grain(self):
        assert doubling_widths(3, 24) == [3, 6, 12]

    def test_paper_plan_shape(self):
        # m = 1024 * 11 from x=11: widths 11, 22, ..., 5632.
        widths = doubling_widths(11, 11 * 1024)
        assert len(widths) == 10
        assert widths[0] == 11
        assert widths[-1] == 11 * 512

    def test_m_equals_x(self):
        assert doubling_widths(4, 4) == []

    def test_invalid_combination(self):
        with pytest.raises(ValueError):
            doubling_widths(3, 10)


class TestMergeLevel:
    def test_term_suppression_small_widths(self):
        # At width 1 an order-3 recurrence has only one available carry;
        # the other two terms refer before the chunk and are suppressed.
        sig = Signature.parse("(1: 1, 1, 1)")
        table = CorrectionFactorTable.build(sig, 8, np.int64)
        pairs = np.array([[5, 7]], dtype=np.int64)
        merge_level(pairs, table, 1)
        # correction: only carry 0 exists: 7 + F0[0]*5 = 7 + 1*5
        np.testing.assert_array_equal(pairs, [[5, 12]])

    def test_float_merge(self, rng):
        values = rng.standard_normal(32).astype(np.float32)
        out = run_phase1("(1: 0.5)", values, 8).reshape(-1)
        expected = np.concatenate(
            [serial_recurrence(values[i : i + 8], [0.5]) for i in range(0, 32, 8)]
        )
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 200),
    order=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_phase1_property_locally_correct(n, order, seed):
    """Random recurrences, sizes, and data: chunks stay locally correct."""
    gen = np.random.default_rng(seed)
    feedback = tuple(int(v) for v in gen.integers(-3, 4, order))
    if feedback[-1] == 0:
        feedback = feedback[:-1] + (1,)
    sig = Signature((1,), feedback)
    values = gen.integers(-10, 10, n).astype(np.int64)
    m = 16
    table = CorrectionFactorTable.build(sig, m, np.int64)
    chunks = -(-n // m)
    padded = np.zeros(chunks * m, dtype=np.int64)
    padded[:n] = values
    out = phase1(padded, table, 1)
    for c in range(chunks):
        piece = padded[c * m : (c + 1) * m]
        np.testing.assert_array_equal(out[c], serial_recurrence(piece, list(feedback)))


class TestIntegerCoefficientGuard:
    """Regression: fractional coefficients silently truncated to 0 when
    the working dtype was integer, computing a *different* recurrence
    (``(1: 0.5)`` on int32 input returned the input unchanged)."""

    def test_fractional_feedback_on_int_dtype_raises(self):
        from repro.core.errors import NumericalError

        values = np.arange(1, 33, dtype=np.int32)
        with pytest.raises(NumericalError, match="fractional"):
            run_phase1("(1: 0.5)", values, 8)

    def test_solver_path_raises_not_truncates(self):
        from repro.core.errors import NumericalError
        from repro.plr.solver import PLRSolver

        values = np.arange(1, 9, dtype=np.int32)
        with pytest.raises(NumericalError, match="int32"):
            PLRSolver("(1: 0.5)").solve(values, dtype=np.int32)

    def test_integral_valued_floats_are_fine(self):
        # 2.0 is representable exactly in int32; only truly fractional
        # coefficients must be rejected.
        values = np.arange(1, 17, dtype=np.int32)
        out = run_phase1("(1: 2.0, -1.0)", values, 8)
        ref = run_phase1("(1: 2, -1)", values, 8)
        np.testing.assert_array_equal(out, ref)

    def test_float_dtype_unaffected(self):
        from repro.plr.phase1 import check_integer_coefficients

        check_integer_coefficients((0.5, -0.25), np.dtype(np.float32))
        check_integer_coefficients((0.5,), np.dtype(np.float64))


class TestBatchedPhase1:
    """phase1 accepts (B, padded_n) input and treats every (row, chunk)
    pair as an independent chunk."""

    def test_batched_rows_match_single_rows(self, rng):
        sig = Signature.parse("(1: 2, -1)")
        m = 16
        table = CorrectionFactorTable.build(sig, m, np.dtype(np.int32))
        batch = rng.integers(-9, 9, size=(5, 4 * m)).astype(np.int32)
        out = phase1(batch, table, 1)
        assert out.shape == (5, 4, m)
        for row in range(5):
            np.testing.assert_array_equal(out[row], phase1(batch[row], table, 1))

    def test_rejects_3d(self, rng):
        sig = Signature.parse("(1: 1)")
        table = CorrectionFactorTable.build(sig, 8, np.dtype(np.int32))
        with pytest.raises(ValueError):
            phase1(np.zeros((2, 2, 8), dtype=np.int32), table, 1)


# ----------------------------------------------------------------------
# Phase 1's CPU routes against their oracles: integer tables (lane-major
# merges, running sums) bit for bit against the natural-layout, full-row
# composition; float tables (segment products and a carry scan) against
# the serial solve of each chunk, and against their own one-chunk bits.

TABLE1 = table1_signatures()
LANE_XS = [1, 2, 3, 9, 11]
# import_module: the package repro.plr re-exports a function named phase1.
phase1_module = import_module("repro.plr.phase1")


def natural_phase1(work: np.ndarray, table: CorrectionFactorTable, x: int) -> None:
    """Phase 1 in natural layout with the full, uncut factor rows.

    The thread-local step and every merge walk the (num_chunks, m)
    matrix directly and multiply whole factor prefixes, zero tails and
    all-ones rows included: the arithmetic before lane-major levels and
    table pruning, in the same order.
    """
    k = table.order
    if np.issubdtype(work.dtype, np.integer):
        coeffs = [np.asarray(b, dtype=work.dtype) for b in table.signature.feedback]
    else:
        coeffs = [work.dtype.type(float(b)) for b in table.signature.feedback]
    cells = work.reshape(-1, x)
    for i in range(1, x):
        for j in range(1, min(i, k) + 1):
            cells[:, i] += cells[:, i - j] * coeffs[j - 1]
    for width in doubling_widths(x, table.chunk_size):
        pairs = work.reshape(-1, 2 * width)
        for j in range(min(k, width)):
            pairs[:, width:] += table.factors[j, :width] * pairs[:, width - 1 - j, None]


IMPRECISE_FLOAT32 = {TABLE1[name].recursive_part() for name in ("order2_prefix_sum", "order3_prefix_sum")}
"""Tables whose float32 chunks miss Section 5's tolerance with the merge
tree and the segment products alike: their factors grow like m^(k-1),
so standard-normal inputs cancel (ROADMAP, "float32 precision of
growing-factor recurrences"; tests/test_tiled.py pins it as strict
xfails).  Their float32 cases check the bits across layouts only."""


def assert_float_phase1(got, inputs, table, x) -> None:
    """Float Phase 1 checked chunk by chunk.

    Every chunk has the bits of its own one-chunk call, so it does not
    matter how many chunks share a call or a block.  And every chunk is
    within Section 5's tolerance of the serial solve of its own slice,
    computed in float64 so the oracle's own float32 rounding does not
    count against the result (float32 third-order filters at m = 704
    differ from a float32 serial loop by 1.2e-3, from float64 by 6e-5).
    """
    feedback = [float(b) for b in table.signature.feedback]
    precise = not (got.dtype == np.float32 and table.signature in IMPRECISE_FLOAT32)
    for chunk, result in zip(inputs, got):
        solo = chunk[None].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            phase1_inplace(solo, table, x)
        assert_same_bits(result, solo[0])
        if precise:
            report = compare_results(
                result, serial_recurrence(chunk.astype(np.float64), feedback)
            )
            assert report.ok, report.describe()


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    """Equal bit for bit, except that an exact zero's sign may differ:
    the pruned merges skip ``+= 0 * carry``, which can turn -0 into +0."""
    assert got.dtype == expected.dtype
    if got.dtype.kind == "f":
        zero = got.dtype.type(0)
        bits = np.dtype(f"u{got.itemsize}")
        got, expected = (got + zero).view(bits), (expected + zero).view(bits)
    np.testing.assert_array_equal(got, expected)


def lane_cases() -> list:
    return [
        pytest.param(name, dtype, id=f"{name}-{np.dtype(dtype).name}")
        for name, signature in TABLE1.items()
        for dtype in (np.int32, np.int64, np.float32, np.float64)
        if signature.is_integer or not np.issubdtype(dtype, np.integer)
    ]


INTEGER_NAMES = [name for name, signature in TABLE1.items() if signature.is_integer]


def lane_inputs(dtype, shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(-50, 50, shape).astype(dtype)
    return rng.standard_normal(shape).astype(dtype)


def wrapping_inputs(shape, seed: int) -> np.ndarray:
    """int32 values within 100 of +-2^31, so nearly every sum wraps."""
    rng = np.random.default_rng(seed)
    near = rng.integers(2**31 - 100, 2**31, shape, dtype=np.int64)
    return np.where(rng.random(shape) < 0.5, near, -near).astype(np.int32)


class TestLaneMajorEquivalence:
    @pytest.mark.parametrize("name,dtype", lane_cases())
    @pytest.mark.parametrize("x", LANE_XS)
    @pytest.mark.parametrize("layout", ["one chunk", "five chunks", "three blocks"])
    def test_matches_natural_full_row_composition(self, name, dtype, x, layout, monkeypatch):
        m = 64 * x
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), m, dtype)
        chunks = 1 if layout == "one chunk" else 5
        if layout == "three blocks":
            # Blocks of two chunks: 2 + 2 + 1.
            monkeypatch.setattr(phase1_module, "TILE_BYTES", 2 * m * table.factors.itemsize)
        work = lane_inputs(dtype, (chunks, m), seed=x * 7 + chunks)
        inputs = work.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            phase1_inplace(work, table, x)
        if not np.issubdtype(dtype, np.integer):
            assert_float_phase1(work, inputs, table, x)
            return
        natural_phase1(inputs, table, x)
        assert_same_bits(work, inputs)

    @pytest.mark.parametrize("x", LANE_XS)
    @pytest.mark.parametrize("name", INTEGER_NAMES)
    def test_integer_wraparound(self, name, x):
        m = 64 * x
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), m, np.int32)
        inputs = wrapping_inputs((5, m), seed=x)
        work, expected = inputs.copy(), inputs.copy()
        natural_phase1(expected, table, x)
        phase1_inplace(work, table, x)
        assert_same_bits(work, expected)
        feedback = list(TABLE1[name].feedback)
        for chunk, result in zip(inputs, work):
            np.testing.assert_array_equal(result, serial_recurrence(chunk, feedback))

    @pytest.mark.parametrize("text", ["(1: 0, 0, 1)", "(1: 1, 0, 1, -1)"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_stride_that_does_not_divide_m(self, text, dtype):
        # Stride 3 runs on its three residue-class views; in (1: 1, 0, 1, -1)
        # = (1 - z)(1 - z^3) it follows a stride that does divide m.
        m = 1024
        table = CorrectionFactorTable.build(Signature.parse(text), m, dtype)
        assert 3 in table.running_sum_strides and m % 3
        work = lane_inputs(dtype, (4, m), seed=m)
        expected = work.copy()
        natural_phase1(expected, table, 1)
        phase1_inplace(work, table, 1)
        assert_same_bits(work, expected)

    @pytest.mark.parametrize("name", INTEGER_NAMES)
    def test_phase1_matches_the_natural_composition(self, name):
        m = 64 * 3
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), m, np.int32)
        padded = wrapping_inputs(5 * m, seed=5)
        expected = padded.reshape(5, m).copy()
        natural_phase1(expected, table, 3)
        got = phase1(padded, table, 3)
        assert_same_bits(got, expected)
        assert not np.shares_memory(got, padded)

    @pytest.mark.parametrize("name", INTEGER_NAMES)
    def test_process_backend_matches_the_serial_reference(self, name):
        n = 64 * 9 + 5
        values = wrapping_inputs(n, seed=9)
        solver = PLRSolver(TABLE1[name], backend="process", workers=2)
        plan = dataclasses.replace(
            solver.plan_for(n), chunk_size=64, values_per_thread=1, num_chunks=-(-n // 64)
        )
        got = solver.solve(values, plan=plan)
        np.testing.assert_array_equal(got, serial_full(values, TABLE1[name]))

    @pytest.mark.parametrize("lanes_per_chunk", [1, 2, 8, 16])
    @pytest.mark.parametrize("name", ["prefix_sum", "order3_prefix_sum", "high_pass_3"])
    def test_chunks_at_or_below_the_lane_width(self, name, lanes_per_chunk):
        # m <= 48 words: segments of gcd(m, 64) = 1 to 16 words, and one
        # segment per chunk where that is below the order (m = 3 and 6
        # for the third-order tables).
        x = 3
        m = lanes_per_chunk * x
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), m, np.float64)
        work = lane_inputs(np.float64, (7, m), seed=lanes_per_chunk)
        inputs = work.copy()
        phase1_inplace(work, table, x)
        assert_float_phase1(work, inputs, table, x)

    @pytest.mark.parametrize("lanes_per_chunk", [1, 2, 8, 16])
    def test_integer_merges_at_or_below_the_lane_width(self, lanes_per_chunk):
        # m <= 48 words, below lane_width(3) = 96, puts every level (or
        # none) in the lane-major layout.
        x = 3
        m = lanes_per_chunk * x
        table = CorrectionFactorTable.build(Signature.parse("(1: 1, 1)"), m, np.int64)
        work = lane_inputs(np.int64, (7, m), seed=lanes_per_chunk)
        expected = work.copy()
        natural_phase1(expected, table, x)
        phase1_inplace(work, table, x)
        assert_same_bits(work, expected)

    def test_caller_scratch_sets_the_block(self):
        table = CorrectionFactorTable.build(TABLE1["low_pass_2"].recursive_part(), 64 * 9, np.float32)
        inputs = lane_inputs(np.float32, (5, table.chunk_size), seed=3)
        work, whole = inputs.copy(), inputs.copy()
        phase1_inplace(work, table, 9, scratch=phase1_scratch(2 * table.chunk_size, np.float32))
        phase1_inplace(whole, table, 9)
        assert_same_bits(work, whole)
        assert_float_phase1(work, inputs, table, 9)


class TestLaneWidth:
    @pytest.mark.parametrize("x,w0", [(1, 64), (2, 64), (3, 96), (8, 64), (9, 72), (11, 88)])
    def test_smallest_x_times_a_power_of_two_from_64_words(self, x, w0):
        assert lane_width(x, 1024 * x) == w0

    @pytest.mark.parametrize("x,m", [(1, 32), (3, 48), (11, 11)])
    def test_capped_at_the_chunk_size(self, x, m):
        assert lane_width(x, m) == m


class TestRunningSumStrides:
    STRIDES = {
        "prefix_sum": (1,),
        "tuple2_prefix_sum": (2,),
        "tuple3_prefix_sum": (3,),
        "order2_prefix_sum": (1, 1),
        "order3_prefix_sum": (1, 1, 1),
    }

    @pytest.mark.parametrize("name", INTEGER_NAMES)
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_table1_integer_families(self, name, dtype):
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), 64, dtype)
        assert table.running_sum_strides == self.STRIDES[name]

    @pytest.mark.parametrize(
        "text,strides",
        [
            ("(1: 1, 1)", None),
            ("(1: 2)", None),
            ("(1: -1)", None),
            ("(1: 1, 1, -1)", (1, 2)),
            ("(1: 1, 0, 1, -1)", (1, 3)),
            ("(1: 2.0, -1.0)", (1, 1)),
        ],
    )
    def test_other_integer_signatures(self, text, strides):
        table = CorrectionFactorTable.build(Signature.parse(text), 64, np.int64)
        assert table.running_sum_strides == strides

    @pytest.mark.parametrize("name", list(TABLE1))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_tables_have_none(self, name, dtype):
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), 64, dtype)
        assert table.running_sum_strides is None


class TestPrunedFactorRows:
    @pytest.mark.parametrize("name,dtype", lane_cases())
    def test_rows_stop_at_width_and_zero_tail(self, name, dtype):
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), 9216, dtype)
        for width in doubling_widths(9, table.chunk_size):
            rows = table.rows_for_width(width)
            assert len(rows) == min(table.order, width)
            for j, row in enumerate(rows):
                assert row.size == min(width, table.row_extents[j]) <= width
                np.testing.assert_array_equal(row, table.factors[j, : row.size])
                assert not table.factors[j, row.size : width].any()
                assert row.size == width or row[-1] != 0

    @pytest.mark.parametrize("name", ["low_pass_1", "low_pass_3", "high_pass_2"])
    def test_float32_stable_filters_decay_inside_the_chunk(self, name):
        # Denormals are flushed at build, so the tails are exact zeros.
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), 9216, np.float32)
        assert max(table.row_extents) < 1024
        assert table.live_factors.shape == (table.order, max(table.row_extents))
        assert not table.factors[:, max(table.row_extents) :].any()

    def test_unit_rows_are_the_all_ones_rows(self):
        units = {
            name: CorrectionFactorTable.build(sig.recursive_part(), 64, np.float64).unit_rows
            for name, sig in TABLE1.items()
        }
        assert units["prefix_sum"] == (True,)
        assert units["tuple2_prefix_sum"] == (False, False)
        assert not any(any(flags) for name, flags in units.items() if name != "prefix_sum")


class TestLaneMajorTraceContract:
    @pytest.mark.parametrize("x", [1, 9])
    def test_one_span_per_level_with_unchanged_args(self, x):
        # A general integer table: the one route that still merges.
        m = 64 * x
        chunks = 3
        table = CorrectionFactorTable.build(Signature.parse("(1: 1, 1)"), m, np.int64)
        tracer = Tracer()
        phase1_inplace(lane_inputs(np.int64, (chunks, m), seed=x), table, x, tracer=tracer)
        spans = [(e.name, e.args) for e in tracer.events if e.ph == "X"]
        expected = [("thread_local_solve", {"x": x})] if x > 1 else []
        expected += [
            ("merge_level", {"width": w, "pairs": chunks * m // (2 * w)})
            for w in doubling_widths(x, m)
        ]
        assert spans == expected

    @pytest.mark.parametrize("x", [1, 9])
    def test_running_sum_tables_emit_one_span_per_stride(self, x):
        table = CorrectionFactorTable.build(TABLE1["order3_prefix_sum"].recursive_part(), 64 * x, np.int64)
        tracer = Tracer()
        phase1_inplace(lane_inputs(np.int64, (3, table.chunk_size), seed=x), table, x, tracer=tracer)
        spans = [(e.name, e.args) for e in tracer.events if e.ph == "X"]
        assert spans == [("running_sum", {"stride": 1})] * 3

    @pytest.mark.parametrize("x", [1, 9])
    def test_float_tables_emit_one_segment_solve_span_per_block(self, x, monkeypatch):
        m = 1024 * x
        table = CorrectionFactorTable.build(TABLE1["high_pass_2"].recursive_part(), m, np.float32)
        # Blocks of two chunks: 2 + 1.
        monkeypatch.setattr(phase1_module, "TILE_BYTES", 2 * m * 4)
        tracer = Tracer()
        phase1_inplace(lane_inputs(np.float32, (3, m), seed=x), table, x, tracer=tracer)
        spans = [(e.name, e.cat, e.args) for e in tracer.events if e.ph == "X"]
        assert spans == [
            ("segment_solve", "phase1", {"width": 64, "segments": 2 * m // 64}),
            ("segment_solve", "phase1", {"width": 64, "segments": m // 64}),
        ]


class TestSegmentSolve:
    @pytest.mark.parametrize(
        "m,order,width",
        [(1024, 1, 64), (9216, 2, 64), (11264, 3, 64), (48, 3, 16), (24, 1, 8), (3, 1, 1), (6, 3, 6)],
    )
    def test_segment_width(self, m, order, width):
        assert segment_width(m, order) == width

    @pytest.mark.parametrize("name", ["prefix_sum", "order2_prefix_sum", "low_pass_2", "high_pass_3"])
    def test_toeplitz_solves_one_segment_from_zero_history(self, name):
        signature = TABLE1[name].recursive_part()
        table = CorrectionFactorTable.build(signature, 1024, np.float64)
        matrix = table.toeplitz(64)
        assert matrix is table.toeplitz(64) and not matrix.flags.writeable
        assert not np.tril(matrix, -1).any()
        np.testing.assert_array_equal(np.diag(matrix), 1)
        segment = lane_inputs(np.float64, 64, seed=1)
        expected = serial_recurrence(segment, [float(b) for b in signature.feedback])
        np.testing.assert_allclose(segment @ matrix, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["high_pass_1", "high_pass_2", "high_pass_3"])
    def test_doubling_scan_matches_the_sequential_spine(self, name):
        # The in-chunk scan over S = 144 segments against Phase 2's spine
        # with the transition over one segment, M[r, j] = factors[j, W-1-r].
        table = CorrectionFactorTable.build(TABLE1[name].recursive_part(), 9216, np.float64)
        solved = lane_inputs(np.float64, (3, 144, 64), seed=2)
        k = table.order
        transition = table.factors[:, 63 - np.arange(k)].T
        locals_ = solved[:, :, 64 - k :][:, :, ::-1]
        expected = propagate_carries(np.ascontiguousarray(locals_), transition)
        got = segment_carries(solved, table).transpose(2, 1, 0)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_non_finite_word_does_not_reach_the_words_before_it(self, dtype):
        # The Toeplitz product would multiply it by the zeros below U's
        # diagonal (0 * inf is NaN); its chunk runs the merge tree.
        table = CorrectionFactorTable.build(TABLE1["low_pass_2"].recursive_part(), 1024, dtype)
        inputs = lane_inputs(dtype, (3, 1024), seed=5)
        inputs[1, 100] = np.inf
        work, expected = inputs.copy(), inputs.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            phase1_inplace(work, table, 1)
            natural_phase1(expected, table, 1)
        assert np.isfinite(work[1, :100]).all() and not np.isfinite(work[1, 100])
        assert_same_bits(work[1, :100], expected[1, :100])
        assert_float_phase1(work[[0, 2]], inputs[[0, 2]], table, 1)

    def test_a_chunk_has_the_same_bits_in_any_batch(self):
        table = CorrectionFactorTable.build(TABLE1["high_pass_2"].recursive_part(), 9216, np.float32)
        inputs = lane_inputs(np.float32, (29, table.chunk_size), seed=4)
        whole = inputs.copy()
        phase1_inplace(whole, table, 9)
        for rows in (slice(0, 1), slice(3, 4), slice(5, 12), slice(28, 29)):
            part = inputs[rows].copy()
            phase1_inplace(part, table, 9)
            assert_same_bits(part, whole[rows])
