"""Multi-dimensional recurrences: batched rows, axes, 2D, SAT."""

import numpy as np
import pytest

from repro.core.reference import serial_full
from repro.core.signature import Signature
from repro.core.validation import assert_valid
from repro.plr.nd import filter2d, filter_axis, solve_batch, summed_area_table


class TestSolveBatch:
    def test_rows_independent(self, rng):
        values = rng.integers(-9, 9, (13, 500)).astype(np.int32)
        out = solve_batch(values, "(1: 2, -1)")
        sig = Signature.parse("(1: 2, -1)")
        for r in range(13):
            np.testing.assert_array_equal(
                out[r], serial_full(values[r], sig), err_msg=f"row {r}"
            )

    def test_prefix_sum_equals_cumsum(self, rng):
        values = rng.integers(-9, 9, (5, 1000)).astype(np.int32)
        np.testing.assert_array_equal(
            solve_batch(values, "(1: 1)"), np.cumsum(values, axis=1, dtype=np.int32)
        )

    def test_float_filter_rows(self, rng):
        values = rng.standard_normal((7, 2200)).astype(np.float32)
        out = solve_batch(values, "(0.04: 1.6, -0.64)")
        sig = Signature.parse("(0.04: 1.6, -0.64)")
        for r in range(7):
            assert_valid(out[r], serial_full(values[r], sig), context=f"row {r}")

    def test_map_stage_in_batch(self, rng):
        values = rng.standard_normal((3, 300)).astype(np.float32)
        out = solve_batch(values, "(0.9, -0.9: 0.8)")
        sig = Signature.parse("(0.9, -0.9: 0.8)")
        for r in range(3):
            assert_valid(out[r], serial_full(values[r], sig))

    def test_single_row(self, rng):
        values = rng.integers(-9, 9, (1, 100)).astype(np.int32)
        np.testing.assert_array_equal(
            solve_batch(values, "(1: 1)")[0], np.cumsum(values[0], dtype=np.int32)
        )

    def test_empty(self):
        # The dtype resolves as for a non-empty batch: int32 data under a
        # fractional signature computes in float32.
        for shape in ((0, 10), (0, 5), (3, 0)):
            values = np.zeros(shape, dtype=np.int32)
            for text, dtype in (("(1: 1)", np.int32), ("(0.2: 0.8)", np.float32)):
                for out in (
                    solve_batch(values, text),
                    filter_axis(values, text, axis=1),
                    filter_axis(values.T, text, axis=0).T,
                ):
                    assert out.shape == shape
                    assert out.dtype == dtype, (shape, text)

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            solve_batch(rng.integers(0, 5, 10), "(1: 1)")

    def test_rejects_unknown_backend_like_every_entry_point(self, rng):
        from repro.plr.solver import check_backend

        with pytest.raises(ValueError) as expected:
            check_backend("bogus")
        for values in (rng.integers(0, 5, (2, 10)), [np.arange(3)], np.zeros((0, 4))):
            with pytest.raises(ValueError) as got:
                solve_batch(values, "(1: 1)", backend="bogus")
            assert str(got.value) == str(expected.value)

    def test_input_not_modified(self, rng):
        values = rng.integers(-9, 9, (4, 64)).astype(np.int32)
        snapshot = values.copy()
        solve_batch(values, "(1: 2, -1)")
        np.testing.assert_array_equal(values, snapshot)


class TestFilterAxis:
    def test_axis1_is_rowwise(self, rng):
        image = rng.integers(0, 9, (6, 40)).astype(np.int32)
        np.testing.assert_array_equal(
            filter_axis(image, "(1: 1)", axis=1),
            np.cumsum(image, axis=1, dtype=np.int32),
        )

    def test_axis0_is_columnwise(self, rng):
        image = rng.integers(0, 9, (40, 6)).astype(np.int32)
        np.testing.assert_array_equal(
            filter_axis(image, "(1: 1)", axis=0),
            np.cumsum(image, axis=0, dtype=np.int32),
        )

    def test_invalid_axis(self, rng):
        with pytest.raises(ValueError):
            filter_axis(rng.integers(0, 5, (4, 4)), "(1: 1)", axis=2)

    def test_rejects_3d(self, rng):
        with pytest.raises(ValueError):
            filter_axis(rng.integers(0, 5, (2, 2, 2)), "(1: 1)")


class TestFilter2D:
    def test_separable_smoothing(self, rng):
        image = rng.standard_normal((24, 48)).astype(np.float32)
        out = filter2d(image, "(0.2: 0.8)")
        # Oracle: serial row filter, then serial column filter.
        sig = Signature.parse("(0.2: 0.8)")
        rows = np.stack([serial_full(image[r], sig) for r in range(24)])
        expected = np.stack(
            [serial_full(rows[:, c], sig) for c in range(48)], axis=1
        )
        assert_valid(out, expected)

    def test_distinct_row_column_filters(self, rng):
        image = rng.integers(0, 5, (10, 12)).astype(np.int32)
        out = filter2d(image, "(1: 1)", "(1: 0, 1)")
        rows = np.cumsum(image, axis=1, dtype=np.int32)
        sig = Signature.parse("(1: 0, 1)")
        expected = np.stack(
            [serial_full(rows[:, c], sig) for c in range(12)], axis=1
        )
        np.testing.assert_array_equal(out, expected)


class TestSummedAreaTable:
    def test_matches_double_cumsum(self, rng):
        image = rng.integers(0, 9, (33, 77)).astype(np.int32)
        sat = summed_area_table(image)
        expected = np.cumsum(np.cumsum(image, axis=1, dtype=np.int32), axis=0, dtype=np.int32)
        np.testing.assert_array_equal(sat, expected)

    def test_box_sum_query(self, rng):
        # The SAT's purpose: O(1) rectangle sums.
        image = rng.integers(0, 9, (20, 20)).astype(np.int64)
        sat = summed_area_table(image.astype(np.int64))
        r0, r1, c0, c1 = 3, 11, 5, 17
        box = sat[r1, c1]
        if r0 > 0:
            box -= sat[r0 - 1, c1]
        if c0 > 0:
            box -= sat[r1, c0 - 1]
        if r0 > 0 and c0 > 0:
            box += sat[r0 - 1, c0 - 1]
        assert box == image[r0 : r1 + 1, c0 : c1 + 1].sum()
