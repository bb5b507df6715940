"""Edge cases across the stack: exotic signatures, extremes, dtypes."""

import dataclasses

import numpy as np
import pytest

from repro.codegen.compiler import PLRCompiler
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.core.signature import Signature
from repro.core.validation import assert_valid
from repro.gpusim.block import ThreadBlock, block_phase1
from repro.gpusim.spec import MachineSpec
from repro.plr.factors import CorrectionFactorTable
from repro.plr.phase1 import phase1
from repro.plr.solver import PLRSolver


class TestFractionSignatures:
    """Exact-rational coefficients flow through the whole pipeline."""

    SIG = "(1/5: 4/5)"

    def test_parse_roundtrip(self):
        sig = Signature.parse(self.SIG)
        assert not sig.is_integer
        assert float(sig.feedforward[0]) == pytest.approx(0.2)

    def test_solver(self, rng):
        values = rng.standard_normal(3000).astype(np.float32)
        got = PLRSolver(self.SIG).solve(values)
        expected = serial_full(values, Signature.parse(self.SIG))
        assert_valid(got, expected)

    def test_c_backend(self, rng):
        values = rng.standard_normal(3000).astype(np.float32)
        kernel = PLRCompiler().compile(self.SIG, n=3000, backend="c").kernel
        expected = serial_full(values, Signature.parse(self.SIG))
        assert_valid(kernel(values), expected)

    def test_cuda_emits(self):
        source = PLRCompiler().compile(self.SIG, backend="cuda").source
        assert "0.2f" in source or "0.200" in source


class TestHighOrder:
    """Orders beyond the paper's k < 4 still work (PLR is general)."""

    def test_order_8_tuple(self, rng):
        sig = Signature.tuple_prefix_sum(8)
        values = rng.integers(-9, 9, 4000).astype(np.int32)
        got = PLRSolver(Recurrence(sig)).solve(values)
        np.testing.assert_array_equal(got, serial_full(values, sig))

    def test_order_6_general(self, rng):
        sig = Signature((1,), (1, 0, -1, 0, 1, 1))
        values = rng.integers(-5, 5, 3000).astype(np.int64)
        got = PLRSolver(Recurrence(sig)).solve(values)
        np.testing.assert_array_equal(got, serial_full(values, sig, dtype=np.int64))

    def test_order_10_filter(self, rng):
        # The paper notes filters above ~order 10 tend to be unstable;
        # a mild order-10 cascade still computes correctly.
        from repro.core.coefficients import low_pass

        sig = low_pass(10, x=0.3)
        values = rng.standard_normal(2500).astype(np.float64)
        got = PLRSolver(Recurrence(sig)).solve(values, dtype=np.float64)
        expected = serial_full(values, sig, dtype=np.float64)
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)


class TestUnstableFloat:
    def test_explosive_filter_matches_serial_until_overflow(self, rng):
        # (1: 1.5) grows without bound; both paths must agree within
        # tolerance while finite, and produce inf at the same scale.
        values = np.abs(rng.standard_normal(2000)).astype(np.float32)
        sig = Signature.parse("(1.0: 1.5)")
        with np.errstate(over="ignore", invalid="ignore"):
            got = PLRSolver(Recurrence(sig)).solve(values)
            expected = serial_full(values, sig)
        finite = np.isfinite(expected)
        assert_valid(got[finite][:200], expected[finite][:200])
        np.testing.assert_array_equal(np.isinf(got[-5:]), np.isinf(expected[-5:]))


class TestDegenerateShapes:
    def test_single_value_all_signatures(self, table1_recurrence):
        values = np.array(
            [3], dtype=np.int32 if table1_recurrence.is_integer else np.float32
        )
        got = PLRSolver(table1_recurrence).solve(values)
        expected = serial_full(values, table1_recurrence.signature)
        assert_valid(got, expected)

    def test_constant_input(self):
        values = np.full(5000, 7, dtype=np.int32)
        got = PLRSolver("(1: 1)").solve(values)
        np.testing.assert_array_equal(got, 7 * np.arange(1, 5001, dtype=np.int32))

    def test_all_zero_input(self):
        values = np.zeros(3000, dtype=np.int32)
        got = PLRSolver("(1: 3, -3, 1)").solve(values)
        assert not got.any()

    def test_order_equals_chunk_size_in_phase1(self, rng):
        # A pathological factor table where k == m.
        sig = Signature((1,), (1, 1, 1, 1))
        table = CorrectionFactorTable.build(sig, 4, np.int64)
        values = rng.integers(-5, 5, 16).astype(np.int64)
        out = phase1(values.copy(), table, 1)
        from repro.core.reference import serial_recurrence

        for c in range(4):
            np.testing.assert_array_equal(
                out[c], serial_recurrence(values[4 * c : 4 * c + 4], [1, 1, 1, 1])
            )


class TestWarp32Block:
    """The lane-level block phase 1 at the real 32-lane warp width."""

    def test_full_width_warps(self, rng):
        machine = MachineSpec.titan_x()
        sig = Signature.parse("(1: 2, -1)")
        m = 128 * 2  # 4 warps of 32 lanes, x = 2
        values = rng.integers(-9, 9, m).astype(np.int64)
        table = CorrectionFactorTable.build(sig, m, np.int64)
        block = ThreadBlock.create(values, 128, machine.warp_size, 48 * 1024)
        block_phase1(block, table)
        expected = phase1(values.copy(), table, 2)
        np.testing.assert_array_equal(block.values(), expected.reshape(-1))
        # With 4 warps there are exactly 2 cross-warp merge levels.
        assert block.stats.shared_writes > 0


class TestDtypeMatrix:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_integer_dtypes(self, dtype, rng):
        values = rng.integers(-100, 100, 5000).astype(dtype)
        got = PLRSolver("(1: 2, -1)").solve(values)
        assert got.dtype == dtype
        np.testing.assert_array_equal(
            got, serial_full(values, Signature.parse("(1: 2, -1)"), dtype=dtype)
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_dtypes(self, dtype, rng):
        values = rng.standard_normal(5000).astype(dtype)
        got = PLRSolver("(0.2: 0.8)").solve(values, dtype=dtype)
        assert got.dtype == dtype
        expected = serial_full(values, Signature.parse("(0.2: 0.8)"), dtype=dtype)
        assert_valid(got, expected)

    def test_int64_c_backend(self, rng):
        values = rng.integers(-(2**40), 2**40, 3000).astype(np.int64)
        kernel = PLRCompiler().compile(
            "(1: 1)", n=3000, backend="c", dtype=np.int64
        ).kernel
        np.testing.assert_array_equal(kernel(values), np.cumsum(values))


def wrapped_uint32(values: np.ndarray, signature: Signature) -> np.ndarray:
    """The uint32 result computed in int64 and reduced mod 2^32: unsigned
    arithmetic wraps in the same ring, so it must agree word for word."""
    exact = serial_full(values.astype(np.int64), signature, dtype=np.int64)
    return (exact % 2**32).astype(np.uint32)


class TestUnsignedWorkingDtype:
    """Regression: a negative coefficient in an unsigned working dtype
    raised a bare ``OverflowError`` in the thread-local step, the map
    stage and the serial reference; each now casts it into the ring."""

    def test_negative_feedback_in_the_thread_local_step(self):
        # (1: 1, -1) is no running sum, so it merges; x = 3 runs the
        # thread-local step, as the x = 11 plan of a 3M-word solve does.
        signature = Signature.parse("(1: 1, -1)")
        values = (np.arange(1000) % 7).astype(np.uint32)
        solver = PLRSolver(signature)
        plan = dataclasses.replace(
            solver.plan_for(1000), chunk_size=192, values_per_thread=3, num_chunks=6
        )
        expected = wrapped_uint32(values, signature)
        np.testing.assert_array_equal(solver.solve(values, plan=plan, dtype=np.uint32), expected)
        np.testing.assert_array_equal(serial_full(values, signature, dtype=np.uint32), expected)

    @pytest.mark.parametrize("backend", ["single", "process"])
    def test_negative_map_coefficient(self, backend):
        signature = Signature.parse("(1, -1: 1)")
        values = (np.arange(3000) % 7).astype(np.uint32)
        got = PLRSolver(signature, backend=backend).solve(values, dtype=np.uint32)
        expected = wrapped_uint32(values, signature)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(serial_full(values, signature, dtype=np.uint32), expected)

    @pytest.mark.parametrize("signature", ["(1, -1: 1)", "(1: 2, -1)", "(1: 1, -1)"])
    def test_generated_python_backend(self, signature):
        # The emitted module casts each map and feedback coefficient to
        # its dtype; the literals it is handed are already in the ring.
        # The small GPU plans x = 11, so the thread-local step runs.
        values = (np.arange(600) % 7).astype(np.uint32)
        kernel = PLRCompiler(MachineSpec.small_test_gpu()).compile(
            signature, n=600, backend="python", dtype=np.uint32
        ).kernel
        got = kernel(values)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(
            got, serial_full(values, Signature.parse(signature), dtype=np.uint32)
        )

    def test_simulator_thread_local_step(self):
        from repro.gpusim.executor import SimulatedPLR

        signature = Signature.parse("(1: 2, -1)")
        values = (np.arange(600) % 7).astype(np.uint32)
        result = SimulatedPLR(Recurrence(signature), MachineSpec.small_test_gpu()).run(values)
        assert result.output.dtype == np.uint32
        np.testing.assert_array_equal(
            result.output, serial_full(values, signature, dtype=np.uint32)
        )


class TestFactorTableCaching:
    def test_solver_instances_share_tables(self, rng):
        from repro.plr.solver import _cached_table

        _cached_table.cache_clear()
        values = rng.integers(-9, 9, 5000).astype(np.int32)
        PLRSolver("(1: 2, -1)").solve(values)
        first = _cached_table.cache_info()
        PLRSolver("(1: 2, -1)").solve(values)
        second = _cached_table.cache_info()
        assert second.hits > first.hits  # the second solver reused the table


class TestSmallAPIs:
    def test_recurrence_dtype_for(self, rng):
        from repro.core.recurrence import Recurrence
        import numpy as np

        rec = Recurrence.parse("(1: 1)")
        assert rec.dtype_for(rng.integers(0, 5, 4).astype(np.int32)) == np.int32
        flt = Recurrence.parse("(0.2: 0.8)")
        assert flt.dtype_for(rng.integers(0, 5, 4).astype(np.int32)) == np.float32

    def test_solve_artifacts_partial_is_phase1_output(self, rng):
        from repro.plr.solver import PLRSolver

        values = rng.integers(-5, 5, 100).astype(np.int32)
        _, artifacts = PLRSolver("(1: 1)").solve_with_artifacts(values)
        # local carries of chunk 0 = last element of the chunk's cumsum
        m = artifacts.plan.chunk_size
        padded = np.zeros(artifacts.plan.padded_n, dtype=np.int32)
        padded[:100] = values
        assert artifacts.partial[0, -1] == np.cumsum(padded[:m], dtype=np.int32)[-1]

    def test_signature_repr_is_parseable(self):
        sig = Signature.parse("(1: 2, -1)")
        assert eval(repr(sig), {"Signature": Signature}) == sig
