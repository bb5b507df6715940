"""The end-to-end PLR solver against the serial reference.

This is the paper's validation methodology applied to our executable
PLR: every Table 1 recurrence, a ladder of sizes including non-powers
of two and degenerate ones, integer exactness and float tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchEngine, BatchSolver
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.core.signature import Signature
from repro.core.validation import assert_valid
from repro.gpusim.spec import MachineSpec
from repro.plr.solver import PLRSolver, plr_solve
from tests.conftest import make_values

SIZES = [1, 2, 3, 31, 32, 33, 1000, 1024, 4095, 20000]


class TestTable1EndToEnd:
    @pytest.mark.parametrize("n", [999, 8192, 50000])
    def test_all_recurrences(self, table1_recurrence, n):
        values = make_values(table1_recurrence, n)
        got = PLRSolver(table1_recurrence).solve(values)
        expected = serial_full(values, table1_recurrence.signature)
        assert_valid(got, expected, context=str(table1_recurrence))


class TestSizeLadder:
    @pytest.mark.parametrize("n", SIZES)
    def test_prefix_sum_every_size(self, n, rng):
        values = rng.integers(-50, 50, n).astype(np.int32)
        got = plr_solve("(1: 1)", values)
        np.testing.assert_array_equal(got, np.cumsum(values, dtype=np.int32))

    @pytest.mark.parametrize("n", SIZES)
    def test_order2_every_size(self, n, rng):
        values = rng.integers(-20, 20, n).astype(np.int32)
        got = plr_solve("(1: 2, -1)", values)
        np.testing.assert_array_equal(got, serial_full(values, Signature.parse("(1: 2, -1)")))

    @pytest.mark.parametrize("n", [1, 5, 1023, 1025, 10000])
    def test_filter_every_size(self, n, rng):
        values = rng.standard_normal(n).astype(np.float32)
        got = plr_solve("(0.04: 1.6, -0.64)", values)
        expected = serial_full(values, Signature.parse("(0.04: 1.6, -0.64)"))
        assert_valid(got, expected)

    def test_non_power_of_two_large(self, rng):
        # "PLR supports input sizes that are not powers of two."
        n = 3 * 1024 * 7 + 13
        values = rng.integers(-5, 5, n).astype(np.int32)
        got = plr_solve("(1: 1)", values)
        np.testing.assert_array_equal(got, np.cumsum(values, dtype=np.int32))


class TestDtypes:
    def test_int64_supported(self, rng):
        values = rng.integers(-100, 100, 5000).astype(np.int64)
        got = PLRSolver("(1: 1)").solve(values)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.cumsum(values))

    def test_float64_override(self, rng):
        values = rng.standard_normal(5000)
        got = PLRSolver("(1: 0.5)").solve(values, dtype=np.float64)
        assert got.dtype == np.float64
        expected = serial_full(values, Signature.parse("(1: 0.5)"), dtype=np.float64)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_int_values_float_signature(self, rng):
        values = rng.integers(-5, 5, 3000).astype(np.int32)
        got = PLRSolver("(0.2: 0.8)").solve(values)
        assert got.dtype == np.float32

    def test_int32_wraparound_matches_serial(self):
        # Fibonacci blows through int32 almost immediately; parallel
        # and serial wrap-around must agree bit for bit.
        values = np.ones(20000, dtype=np.int32)
        got = plr_solve("(1: 1, 1)", values)
        expected = serial_full(values, Signature.parse("(1: 1, 1)"))
        np.testing.assert_array_equal(got, expected)


class TestAPI:
    def test_accepts_string(self):
        solver = PLRSolver("(1: 1)")
        assert solver.recurrence.signature == Signature.prefix_sum()

    def test_accepts_signature(self):
        solver = PLRSolver(Signature.prefix_sum())
        assert solver.recurrence.order == 1

    def test_accepts_recurrence(self):
        rec = Recurrence.parse("(1: 1)")
        assert PLRSolver(rec).recurrence is rec

    def test_rejects_2d_input(self, rng):
        with pytest.raises(ValueError):
            PLRSolver("(1: 1)").solve(rng.integers(0, 5, (4, 4)))

    def test_artifacts_exposed(self, rng):
        values = rng.integers(-5, 5, 3000).astype(np.int32)
        solver = PLRSolver("(1: 2, -1)")
        out, artifacts = solver.solve_with_artifacts(values)
        assert artifacts.plan.num_chunks == artifacts.partial.shape[0]
        assert artifacts.table.chunk_size == artifacts.plan.chunk_size
        assert artifacts.factor_plan.table is artifacts.table
        # Phase 1 partial is locally correct per chunk.
        m = artifacts.plan.chunk_size
        padded = np.zeros(artifacts.plan.padded_n, dtype=np.int32)
        padded[:3000] = values
        first_chunk = serial_full(padded[:m], Signature.parse("(1: 2, -1)"))
        np.testing.assert_array_equal(artifacts.partial[0], first_chunk)

    def test_explicit_plan_respected(self, rng):
        values = rng.integers(-5, 5, 5000).astype(np.int32)
        solver = PLRSolver("(1: 1)")
        plan = solver.plan_for(5000)
        out = solver.solve(values, plan=plan)
        np.testing.assert_array_equal(out, np.cumsum(values, dtype=np.int32))

    @pytest.mark.parametrize(
        "build",
        [
            lambda machine: PLRSolver("(1: 1)", machine=machine),
            lambda machine: BatchSolver("(1: 1)", machine=machine),
            lambda machine: BatchEngine(machine=machine),
        ],
        ids=["PLRSolver", "BatchSolver", "BatchEngine"],
    )
    def test_cpu_entry_points_take_no_machine(self, build):
        # They all plan for the default machine, so a grouped row
        # computes exactly as its own solve does.
        with pytest.raises(TypeError, match="machine"):
            build(MachineSpec.small_test_gpu())

    def test_input_not_modified(self, rng):
        values = rng.integers(-5, 5, 2000).astype(np.int32)
        snapshot = values.copy()
        plr_solve("(1: 2, -1)", values)
        np.testing.assert_array_equal(values, snapshot)


class TestRecurrenceObject:
    def test_parse_and_str(self):
        rec = Recurrence.parse("(1: 2, -1)")
        assert str(rec) == "(1: 2, -1)"
        assert rec.order == 2

    def test_classification_cached(self):
        rec = Recurrence.parse("(1: 1)")
        assert rec.classification is rec.classification

    def test_has_map_stage(self):
        assert not Recurrence.parse("(1: 1)").has_map_stage
        assert Recurrence.parse("(0.2: 0.8)").has_map_stage
        assert Recurrence.parse("(0.9, -0.9: 0.8)").has_map_stage

    def test_evaluate_is_serial(self, rng):
        rec = Recurrence.parse("(1: 1)")
        values = rng.integers(-5, 5, 100).astype(np.int32)
        np.testing.assert_array_equal(
            rec.evaluate(values), np.cumsum(values, dtype=np.int32)
        )

    def test_apply_map_stage(self, rng):
        rec = Recurrence.parse("(0.9, -0.9: 0.8)")
        values = rng.standard_normal(50).astype(np.float32)
        mapped = rec.apply_map_stage(values)
        expected = 0.9 * values
        expected[1:] -= 0.9 * values[:-1]
        np.testing.assert_allclose(mapped, expected, rtol=1e-5)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3000),
    order=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_solver_property_random_recurrences(n, order, seed):
    """Random integer recurrences of random sizes match the oracle."""
    gen = np.random.default_rng(seed)
    feedback = tuple(int(v) for v in gen.integers(-3, 4, order))
    if feedback[-1] == 0:
        feedback = feedback[:-1] + (1,)
    sig = Signature((1,), feedback)
    values = gen.integers(-10, 10, n).astype(np.int32)
    got = PLRSolver(Recurrence(sig)).solve(values)
    expected = serial_full(values, sig)
    np.testing.assert_array_equal(got, expected)


class TestFactorCacheKey:
    """Regression guard: the factor-table cache key must include the
    working dtype (and chunk size) — a key of signature alone would
    hand a float32 solve an int32 table built moments earlier."""

    def test_same_signature_two_dtypes_two_entries(self, rng):
        from repro.plr.solver import (
            cached_factor_table,
            clear_factor_cache,
            factor_cache_stats,
        )

        clear_factor_cache()
        sig = Signature.parse("(1: 2, -1)").recursive_part()
        t32 = cached_factor_table(sig, 64, np.float32)
        t64 = cached_factor_table(sig, 64, np.float64)
        stats = factor_cache_stats()
        assert stats["misses"] == 2  # distinct dtypes -> distinct entries
        assert t32.factors.dtype == np.float32
        assert t64.factors.dtype == np.float64
        # Same triple again: pure hits, no rebuild.
        cached_factor_table(sig, 64, np.float32)
        cached_factor_table(sig, 64, np.float64)
        after = factor_cache_stats()
        assert after["misses"] == 2
        assert after["hits"] >= stats["hits"] + 2

    def test_solves_at_two_dtypes_stay_correct(self, rng):
        from repro.plr.solver import clear_factor_cache

        clear_factor_cache()
        values = rng.standard_normal(5000).astype(np.float32)
        solver = PLRSolver("(0.2: 0.8)")
        out32 = solver.solve(values)
        out64 = solver.solve(values, dtype=np.float64)
        assert out32.dtype == np.float32
        assert out64.dtype == np.float64
        expected = serial_full(values, Signature.parse("(0.2: 0.8)"), dtype=np.float64)
        assert_valid(out64, expected)
        assert_valid(out32, expected.astype(np.float32))

    def test_chunk_size_is_part_of_the_key(self):
        from repro.plr.solver import (
            cached_factor_table,
            clear_factor_cache,
            factor_cache_stats,
        )

        clear_factor_cache()
        sig = Signature.parse("(1: 1)").recursive_part()
        a = cached_factor_table(sig, 64, np.int32)
        b = cached_factor_table(sig, 128, np.int32)
        assert factor_cache_stats()["misses"] == 2
        assert a.factors.shape[1] == 64
        assert b.factors.shape[1] == 128

    def test_dtype_spelling_variants_share_an_entry(self):
        from repro.plr.solver import (
            cached_factor_table,
            clear_factor_cache,
            factor_cache_stats,
        )

        clear_factor_cache()
        sig = Signature.parse("(1: 1)").recursive_part()
        cached_factor_table(sig, 64, np.float32)
        cached_factor_table(sig, 64, "float32")
        cached_factor_table(sig, 64, np.dtype("float32"))
        assert factor_cache_stats()["misses"] == 1
