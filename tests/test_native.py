"""The native (JIT-compiled C) backend: cache correctness + equivalence.

Covers the compile-cache hardening (atomic publication, corrupt-``.so``
recovery, digest over compiler identity and flags), the typed kernel
contract, the NumPy-equivalence sweep through ``PLRSolver``, the native
backend staying in this process when workers are configured (also
after an earlier in-process kernel), and graceful degradation when no
compiler exists.

Everything here carries the ``native`` marker; the whole module skips
cleanly on machines without a C compiler (the degradation *behaviour*
is still exercised on machines with one, by monkeypatching the
compiler probe away).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen import cbackend, jit
from repro.codegen.cbackend import (
    compile_c_kernel,
    kernel_digest,
    load_kernel_library,
)
from repro.codegen.ir import build_ir
from repro.codegen.jit import clear_native_cache, native_available
from repro.core.coefficients import table1_signatures
from repro.core.errors import BackendError
from repro.core.recurrence import Recurrence
from repro.core.validation import assert_valid
from repro.parallel.sharding import ShardOptions
from repro.plr.solver import PLRSolver
from tests.conftest import TABLE1_NAMES, make_values

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(
        not native_available(), reason="no C compiler on this machine"
    ),
]


def _ir(text: str = "(1: 1)", n: int = 4096):
    return build_ir(Recurrence.parse(text), n)


class TestCacheHardening:
    def test_corrupt_so_recompiled(self, tmp_path):
        """A truncated/garbage ``.so`` under the digest path must not be
        trusted — the loader failure triggers an in-place recompile.

        The first compile runs in a child process: a crashed writer
        leaves its corrupt artifact behind for a *fresh* process, and
        overwriting a ``.so`` this process has dlopen'ed would be
        undefined behaviour, not a cache test.
        """
        script = (
            "from repro.codegen.cbackend import compile_c_kernel\n"
            "from repro.codegen.ir import build_ir\n"
            "from repro.core.recurrence import Recurrence\n"
            f"k = compile_c_kernel(build_ir(Recurrence.parse('(1: 1)'), 4096), workdir={str(tmp_path)!r})\n"
            "print(k.library_path)\n"
        )
        probe = subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            capture_output=True,
            text=True,
        )
        so_path = Path(probe.stdout.strip())
        assert so_path.exists()
        so_path.write_bytes(b"not an ELF object")  # simulate a torn write
        kernel = compile_c_kernel(_ir(), workdir=tmp_path)
        assert kernel.library_path == so_path
        values = np.arange(1, 9, dtype=np.int32)
        np.testing.assert_array_equal(
            kernel(values), np.cumsum(values, dtype=np.int32)
        )

    def test_flag_change_misses_cache(self, tmp_path):
        plain = compile_c_kernel(_ir(), workdir=tmp_path)
        flagged = compile_c_kernel(
            _ir(), workdir=tmp_path, extra_flags=("-DPLR_CACHE_PROBE",)
        )
        assert plain.library_path != flagged.library_path
        assert plain.digest != flagged.digest

    def test_compiler_version_in_digest(self, tmp_path, monkeypatch):
        before = compile_c_kernel(_ir(), workdir=tmp_path)
        monkeypatch.setattr(
            cbackend, "_compiler_version", lambda compiler: "phantom 99.9.9"
        )
        after = compile_c_kernel(_ir(), workdir=tmp_path)
        assert before.digest != after.digest
        assert before.library_path != after.library_path

    def test_digest_is_deterministic(self):
        parts = ("int x;", "/usr/bin/cc", ("-O2",), np.dtype(np.int32), 64)
        assert kernel_digest(*parts) == kernel_digest(*parts)
        assert kernel_digest("int y;", *parts[1:]) != kernel_digest(*parts)

    def test_no_leftover_temp_files(self, tmp_path):
        compile_c_kernel(_ir(), workdir=tmp_path)
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []

    def test_compile_failure_is_typed_and_uncached(self, tmp_path):
        with pytest.raises(BackendError, match="compil"):
            compile_c_kernel(_ir(), workdir=tmp_path, extra_flags=("-Wl,--no-such-flag-ever",))
        # Nothing was published under the failing digest.
        assert list(tmp_path.glob("*.so")) == []


class TestKernelContract:
    def test_missing_symbol_is_typed(self, tmp_path):
        source = tmp_path / "empty.c"
        source.write_text("int plr_unrelated(void) { return 0; }\n")
        so_path = tmp_path / "empty.so"
        compiler = cbackend._find_compiler()
        subprocess.run(
            [compiler, "-shared", "-fPIC", str(source), "-o", str(so_path)],
            check=True,
            capture_output=True,
        )
        with pytest.raises(BackendError, match="plr_compute"):
            load_kernel_library(so_path)

    def test_unloadable_library_is_typed(self, tmp_path):
        bogus = tmp_path / "bogus.so"
        bogus.write_bytes(b"\x7fELF-but-not-really")
        with pytest.raises(BackendError, match="failed to load"):
            load_kernel_library(bogus)

    def test_rejects_2d_and_empty(self, tmp_path):
        kernel = compile_c_kernel(_ir(), workdir=tmp_path)
        with pytest.raises(BackendError, match="1-D"):
            kernel(np.zeros((2, 3), dtype=np.int32))
        with pytest.raises(BackendError, match="non-empty"):
            kernel(np.array([], dtype=np.int32))


class TestNativeEquivalence:
    """backend="native" must be indistinguishable from the numpy path:
    bit-identical for integer dtypes, tolerance-equal for floats."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(TABLE1_NAMES),
        n=st.one_of(
            st.integers(min_value=1, max_value=8),  # n < k tails
            st.integers(min_value=9, max_value=20000),
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_table1_sweep(self, name, n, seed):
        recurrence = Recurrence(table1_signatures()[name])
        values = make_values(recurrence, n, seed=seed)
        native = PLRSolver(recurrence, backend="native", native_fallback=False)
        single = PLRSolver(recurrence, backend="single")
        got, artifacts = native.solve_with_artifacts(values)
        expected = single.solve(values)
        assert artifacts.native is not None and artifacts.native.used
        # Integer dtypes compare bit for bit; floats use the paper's
        # Section 5 tolerance (the serial-per-chunk kernel and the
        # doubling-merge numpy path round differently).
        assert_valid(got, expected, context=f"native/{name}/n={n}")

    @pytest.mark.parametrize(
        "text,dtype",
        [
            ("(1: 2, -1)", np.int32),  # wraps around the int32 ring
            ("(1: 2, -1)", np.int64),
            ("(0.04: 1.6, -0.64)", np.float64),
        ],
    )
    def test_wraparound_and_wide_dtypes(self, text, dtype, rng):
        recurrence = Recurrence.parse(text)
        if np.issubdtype(dtype, np.integer):
            values = rng.integers(-100, 100, 20000).astype(dtype)
        else:
            values = rng.standard_normal(20000).astype(dtype)
        native = PLRSolver(recurrence, backend="native", native_fallback=False)
        got = native.solve(values, dtype=dtype)
        expected = PLRSolver(recurrence).solve(values, dtype=dtype)
        if np.issubdtype(dtype, np.integer):
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-10)

    def test_batch_solver_native_matches(self, rng):
        from repro.batch.solver import BatchSolver
        from repro.plr.nd import solve_batch

        values = rng.integers(-50, 50, size=(6, 4000)).astype(np.int32)
        native = BatchSolver("(1: 2, -1)", backend="native")
        single = BatchSolver("(1: 2, -1)")
        expected = single.solve(values)
        np.testing.assert_array_equal(native.solve(values), expected)
        # solve_batch takes every backend name, as the solvers do.
        got = solve_batch(values, "(1: 2, -1)", backend="native")
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_batch_solver_fetches_its_kernel_once_per_solve(self, rng, monkeypatch):
        from repro.batch.solver import BatchSolver

        fetched = []
        original = jit.native_kernel

        def spy(ir, workdir=None):
            fetched.append(ir.plan.chunk_size)
            return original(ir, workdir)

        monkeypatch.setattr(jit, "native_kernel", spy)
        rows = [rng.integers(-50, 50, size=n).astype(np.int32) for n in range(100, 900, 100)]
        outputs = BatchSolver("(1: 2, -1)", backend="native").solve(rows)
        assert len(outputs) == 8 and len(fetched) == 1

    def test_batch_solver_native_solves_ragged_rows_at_their_length(self, rng):
        from repro.batch.solver import BatchSolver

        rows = [rng.integers(-50, 50, size=n).astype(np.int32) for n in (0, 3, 4000, 70)]
        native = BatchSolver("(1: 2, -1)", backend="native")
        plan = native.plan_for(4000)
        outputs = native.solve(rows)
        assert isinstance(outputs, list) and outputs[0].shape == (0,)
        solver = PLRSolver("(1: 2, -1)")
        for row, out in zip(rows, outputs):
            np.testing.assert_array_equal(out, solver.solve(row, plan=plan))


class TestNativeAfterInProcessSolve:
    """``workers`` configure the process backend only: native always
    runs its kernel in this process.  A pool forked after an in-process
    kernel inherits libgomp's thread-pool state and deadlocks in its
    first parallel region, so each test runs an in-process solve first
    and must then finish well inside the 10 s stage timeout."""

    OPTIONS = ShardOptions(workers=2, timeout_s=10)

    @pytest.fixture(autouse=True)
    def _in_process_solve_first(self):
        recurrence = Recurrence.parse("(1: 2, -1)")
        PLRSolver(recurrence, backend="native", native_fallback=False).solve(
            make_values(recurrence, 30000)
        )

    @pytest.mark.parametrize("text", ["(1: 1)", "(1: 2, -1)", "(0.2: 0.8)"])
    def test_workers_leave_native_in_process(self, text):
        recurrence = Recurrence.parse(text)
        values = make_values(recurrence, 30000)
        native = PLRSolver(
            recurrence,
            backend="native",
            native_fallback=False,
            shard_options=self.OPTIONS,
        )
        got, artifacts = native.solve_with_artifacts(values)
        assert artifacts.native is not None and artifacts.native.used
        assert_valid(got, PLRSolver(recurrence).solve(values), context=f"native/{text}")

    def test_resilient_native_isolation_path(self):
        """The server's isolated re-run: one ok attempt, no degradation."""
        from repro.resilience.solver import ResilientSolver

        recurrence = Recurrence.parse("(1: 2, -1)")
        values = make_values(recurrence, 30000)
        report = ResilientSolver(recurrence, backend="native").solve_with_report(values)
        assert report.ok
        assert [attempt.outcome for attempt in report.attempts] == ["ok"]
        assert report.degradations == []
        assert_valid(report.output, PLRSolver(recurrence).solve(values))


class TestDegradation:
    """No compiler must never kill a solve — typed record, numpy result."""

    def _hide_compiler(self, monkeypatch):
        def _missing() -> str:
            raise BackendError("no C compiler found (tried: cc, gcc, clang)")

        monkeypatch.setattr(cbackend, "_find_compiler", _missing)
        clear_native_cache()

    def test_solver_degrades_with_attempt_record(self, monkeypatch, rng):
        self._hide_compiler(monkeypatch)
        # A non-Table-1 signature so no previously cached kernel can hit.
        recurrence = Recurrence.parse("(3: 1, 1, 1)")
        values = rng.integers(-9, 9, 5000).astype(np.int32)
        solver = PLRSolver(recurrence, backend="native")
        got, artifacts = solver.solve_with_artifacts(values)
        assert artifacts.native is not None
        assert not artifacts.native.used
        assert "BackendError" in artifacts.native.error
        np.testing.assert_array_equal(got, PLRSolver(recurrence).solve(values))

    def test_strict_mode_raises(self, monkeypatch, rng):
        self._hide_compiler(monkeypatch)
        solver = PLRSolver(
            "(3: 1, 1, 1)", backend="native", native_fallback=False
        )
        with pytest.raises(BackendError):
            solver.solve(rng.integers(-9, 9, 5000).astype(np.int32))

    def test_resilient_chain_records_backend_fault(self, monkeypatch, rng):
        self._hide_compiler(monkeypatch)
        from repro.resilience.solver import ResilientSolver

        solver = ResilientSolver("(3: 1, 1, 1)", backend="native")
        values = rng.integers(-9, 9, 5000).astype(np.int32)
        report = solver.solve_with_report(values)
        assert report.ok
        assert [attempt.outcome for attempt in report.attempts] == ["backend", "ok"]
        assert report.degraded
        np.testing.assert_array_equal(
            report.output, PLRSolver("(3: 1, 1, 1)").solve(values)
        )

    def test_native_available_reflects_probe(self, monkeypatch):
        assert native_available()
        self._hide_compiler(monkeypatch)
        assert not native_available()

    def test_clear_native_cache_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PLR_NATIVE_CACHE_DIR", str(tmp_path))
        clear_native_cache()
        kernel = jit.native_kernel(_ir("(1: 0, 1)", 4096))
        assert kernel.library_path.exists()
        removed = clear_native_cache(disk=True)
        assert removed >= 1
        assert not kernel.library_path.exists()
