"""``backend="auto"``: one static rule, decided from the input length.

Auto runs the native kernel from ``STATIC_NATIVE_CROSSOVER`` words up
when a C compiler is available, and the numpy single backend otherwise.
``PLRSolver`` decides per solve; ``BatchSolver`` decides once per batch,
on its longest row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.solver import BatchSolver
from repro.codegen import jit
from repro.codegen.jit import native_available
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.core.validation import compare_results
from repro.obs.tracer import Tracer
from repro.plr.solver import (
    SOLVE_BACKENDS,
    STATIC_NATIVE_CROSSOVER,
    PLRSolver,
    resolve_backend,
)
from tests.conftest import make_values

CASES = [("(1: 1)", np.int32), ("(0.2: 0.8)", np.float32)]

needs_compiler = pytest.mark.skipif(
    not native_available(), reason="no C compiler on this machine"
)


def assert_serial(out: np.ndarray, values: np.ndarray, text: str) -> None:
    expected = serial_full(values, Recurrence.parse(text).signature)
    if np.issubdtype(out.dtype, np.integer):
        np.testing.assert_array_equal(out, expected)
    else:
        outcome = compare_results(out, expected)
        assert outcome.ok, outcome.describe()


def hide_compiler(monkeypatch) -> None:
    monkeypatch.setattr(jit, "native_available", lambda: False)


class TestStaticRule:
    def test_fixed_names_pass_through(self):
        for backend in set(SOLVE_BACKENDS) - {"auto"}:
            assert resolve_backend(backend, 1) == backend
            assert resolve_backend(backend, 1 << 20) == backend

    @pytest.mark.parametrize("text,dtype", CASES)
    def test_below_crossover_resolves_single(self, text, dtype):
        values = make_values(Recurrence.parse(text), STATIC_NATIVE_CROSSOVER - 1)
        out, artifacts = PLRSolver(text, backend="auto").solve_with_artifacts(values)
        assert artifacts.backend == "single"
        assert artifacts.native is None
        assert out.dtype == dtype
        assert_serial(out, values, text)

    @pytest.mark.native
    @needs_compiler
    @pytest.mark.parametrize("text,dtype", CASES)
    def test_at_crossover_resolves_native(self, text, dtype):
        values = make_values(Recurrence.parse(text), STATIC_NATIVE_CROSSOVER)
        out, artifacts = PLRSolver(text, backend="auto").solve_with_artifacts(values)
        assert artifacts.backend == "native"
        assert artifacts.native.used
        assert_serial(out, values, text)

    @pytest.mark.parametrize("text,dtype", CASES)
    def test_at_crossover_without_compiler_resolves_single(
        self, text, dtype, monkeypatch
    ):
        hide_compiler(monkeypatch)
        assert resolve_backend("auto", 1 << 24) == "single"
        values = make_values(Recurrence.parse(text), STATIC_NATIVE_CROSSOVER)
        out, artifacts = PLRSolver(text, backend="auto").solve_with_artifacts(values)
        assert artifacts.backend == "single"
        assert artifacts.native is None
        assert_serial(out, values, text)


class TestBatchSolverAuto:
    FIB = "(1: 2, -1)"

    def ragged(self, longest: int) -> list[np.ndarray]:
        recurrence = Recurrence.parse(self.FIB)
        return [make_values(recurrence, n, seed=n) for n in (16, 1000, longest)]

    def passes(self, tracer: Tracer) -> set[str]:
        return {e.name for e in tracer.events} & {"batch_native", "batch_solve"}

    def test_batch_solver_accepts_auto(self):
        recurrence = Recurrence.parse(self.FIB)
        batch = np.stack([make_values(recurrence, 512, seed=s) for s in (1, 2)])
        out = BatchSolver(self.FIB, backend="auto").solve(batch)
        for row, values in zip(out, batch):
            assert_serial(row, values, self.FIB)

    @pytest.mark.native
    @needs_compiler
    def test_decides_on_the_longest_row(self):
        for longest, expected in (
            (STATIC_NATIVE_CROSSOVER - 1, {"batch_solve"}),
            (STATIC_NATIVE_CROSSOVER, {"batch_native"}),
        ):
            rows = self.ragged(longest)
            tracer = Tracer()
            outputs = BatchSolver(self.FIB, tracer=tracer, backend="auto").solve(rows)
            assert self.passes(tracer) == expected
            for out, values in zip(outputs, rows):
                assert_serial(out, values, self.FIB)

    def test_without_compiler_every_batch_runs_single(self, monkeypatch):
        hide_compiler(monkeypatch)
        rows = self.ragged(STATIC_NATIVE_CROSSOVER)
        tracer = Tracer()
        outputs = BatchSolver(self.FIB, tracer=tracer, backend="auto").solve(rows)
        assert self.passes(tracer) == {"batch_solve"}
        for out, values in zip(outputs, rows):
            assert_serial(out, values, self.FIB)


def test_serve_config_accepts_auto():
    from repro.serve import ServeConfig

    assert ServeConfig(backend="auto").backend == "auto"
    with pytest.raises(ValueError):
        ServeConfig(backend="turbo")
