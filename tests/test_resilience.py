"""Resilient execution: fault plans, health checks, the fallback chain,
and the chaos invariant (correct output or typed error, never silent
corruption)."""

import numpy as np
import pytest

from repro.codegen.jit import native_available
from repro.core.errors import (
    BackendError,
    DeadlockError,
    NumericalError,
    ReproError,
    SimulationError,
)
from repro.core.recurrence import Recurrence
from repro.core.reference import serial_full
from repro.core.signature import Signature
from repro.core.validation import compare_results
from repro.gpusim.executor import ProtocolFault, SimulatedPLR, coerce_fault_plan
from repro.gpusim.faults import (
    CORRUPTING_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    flip_bit,
)
from repro.gpusim.spec import MachineSpec
from repro.plr.factors import CorrectionFactorTable
from repro.resilience.chaos import random_fault_plan, run_chaos
from repro.resilience.health import (
    array_health,
    check_finite,
    predict_table_overflow,
    spectral_radius,
)
from repro.resilience.solver import FallbackPolicy, ResilientSolver


@pytest.fixture(scope="module")
def machine() -> MachineSpec:
    return MachineSpec.small_test_gpu()


class TestFaultPlan:
    def test_none_is_inactive(self):
        assert not FaultPlan.none().active
        assert FaultPlan.none().describe() == "no faults"

    def test_single_and_kinds(self):
        plan = FaultPlan.single("stale_carry", chunks=(1, 2))
        assert plan.active
        assert plan.kinds() == frozenset({FaultKind.STALE_CARRY})
        assert plan.specs[0].applies_to(1)
        assert not plan.specs[0].applies_to(0)

    def test_coerce_paths(self):
        assert not coerce_fault_plan(None).active
        assert not coerce_fault_plan("none").active
        assert coerce_fault_plan(FaultKind.BIT_FLIP_CARRY).active
        spec = FaultSpec(kind=FaultKind.STALE_CARRY)
        assert coerce_fault_plan(spec).specs == (spec,)
        plan = FaultPlan.single("delay_flag")
        assert coerce_fault_plan(plan) is plan

    def test_unknown_kind_is_typed(self):
        with pytest.raises(SimulationError, match="unknown fault kind"):
            FaultPlan.single("meteor_strike")

    def test_invalid_spec_parameters_rejected(self):
        with pytest.raises(SimulationError):
            FaultSpec(kind=FaultKind.STALE_CARRY, probability=1.5)
        with pytest.raises(SimulationError):
            FaultSpec(kind=FaultKind.DELAY_FLAG, window=0)
        with pytest.raises(SimulationError):
            FaultSpec(kind=FaultKind.STALE_CARRY, max_triggers=-1)

    def test_legacy_presets_lower_to_plans(self):
        assert not ProtocolFault.NONE.to_plan().active
        assert ProtocolFault.FLAG_BEFORE_DATA.to_plan().kinds() == frozenset(
            {FaultKind.DELAY_FLAG}
        )
        assert ProtocolFault.SKIP_LOCAL_FLAG.to_plan().kinds() == frozenset(
            {FaultKind.DROP_LOCAL_FLAG}
        )
        assert ProtocolFault.NEVER_PUBLISH.to_plan().kinds() == frozenset(
            {FaultKind.DROP_LOCAL_FLAG, FaultKind.DROP_GLOBAL_FLAG}
        )


class TestFaultEngine:
    def test_budget_respected(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind=FaultKind.STALE_CARRY, max_triggers=2),)
        )
        engine = plan.engine()
        fired = [engine.fire(FaultKind.STALE_CARRY, c) for c in range(5)]
        assert sum(f is not None for f in fired) == 2
        assert len(engine.events) == 2

    def test_probability_is_seeded(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind=FaultKind.STALE_CARRY, probability=0.5),),
            seed=42,
        )
        engine1, engine2 = plan.engine(), plan.engine()
        first = [engine1.fire(FaultKind.STALE_CARRY, c) is not None
                 for c in range(20)]
        second = [engine2.fire(FaultKind.STALE_CARRY, c) is not None
                  for c in range(20)]
        assert first == second  # same plan seed, same draws
        assert any(first) and not all(first)

    def test_abort_restart_capped_per_chunk(self):
        from repro.gpusim.faults import MAX_RESTARTS_PER_CHUNK

        plan = FaultPlan.single(FaultKind.ABORT_RESTART)
        engine = plan.engine()
        fired = [
            engine.fire(FaultKind.ABORT_RESTART, 3) is not None
            for _ in range(MAX_RESTARTS_PER_CHUNK + 3)
        ]
        assert sum(fired) == MAX_RESTARTS_PER_CHUNK

    def test_flip_bit_roundtrip(self):
        values = np.array([12345], dtype=np.int32)
        flipped = flip_bit(values, 7)
        assert flipped[0] != values[0]
        np.testing.assert_array_equal(flip_bit(flipped, 7), values)

    def test_flip_bit_float(self):
        values = np.array([1.5], dtype=np.float32)
        flipped = flip_bit(values, 22)
        assert flipped.dtype == np.float32
        assert flipped[0] != values[0]


class TestGeneralizedSimFaults:
    """The new fault kinds, driven straight through the simulator."""

    def test_abort_restart_recovers_exactly(self, machine, rng):
        values = rng.integers(-9, 9, 600).astype(np.int32)
        sim = SimulatedPLR(
            Recurrence.parse("(1: 1)"), machine, seed=4,
            fault=FaultPlan.single(FaultKind.ABORT_RESTART, probability=0.3),
        )
        result = sim.run(values)
        assert result.restarts > 0
        assert any(e.kind == FaultKind.ABORT_RESTART for e in result.fault_events)
        np.testing.assert_array_equal(
            result.output, np.cumsum(values, dtype=np.int32)
        )

    @pytest.mark.parametrize("kind", sorted(CORRUPTING_KINDS, key=lambda k: k.value))
    def test_corrupting_kinds_corrupt_silently(self, kind, machine, rng):
        """These faults must complete without any protocol error and
        produce a wrong answer under at least one schedule — that is
        what makes redundant verification necessary."""
        values = rng.integers(1, 9, 600).astype(np.int32)
        expected = np.cumsum(values, dtype=np.int32)
        corrupted = 0
        for seed in range(8):
            sim = SimulatedPLR(
                Recurrence.parse("(1: 1)"), machine, seed=seed,
                fault=FaultPlan.single(kind, bit=30, window=6),
            )
            out = sim.run(values).output  # must not raise
            if not np.array_equal(out, expected):
                corrupted += 1
        assert corrupted > 0

    def test_drop_local_flag_keeps_correctness(self, machine, rng):
        values = rng.integers(-9, 9, 480).astype(np.int32)
        sim = SimulatedPLR(
            Recurrence.parse("(1: 2, -1)"), machine, seed=1,
            fault=FaultPlan.single(FaultKind.DROP_LOCAL_FLAG),
            deadlock_rounds=200,
        )
        out = sim.run(values).output
        np.testing.assert_array_equal(
            out, serial_full(values, Signature.parse("(1: 2, -1)"))
        )

    def test_drop_global_flag_deadlocks_with_forensics(self, machine, rng):
        values = rng.integers(0, 5, 400).astype(np.int32)
        sim = SimulatedPLR(
            Recurrence.parse("(1: 1)"), machine, seed=0,
            fault=FaultPlan.single(FaultKind.DROP_GLOBAL_FLAG, chunks=(0,)),
            deadlock_rounds=50,
        )
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(values)
        assert any(0 in w.blocked_on for w in excinfo.value.forensics)

    def test_per_chunk_targeting(self, machine, rng):
        """A bit flip on one chunk's carry leaves outputs before that
        chunk untouched."""
        values = rng.integers(1, 9, 320).astype(np.int32)
        m = machine.max_threads_per_block  # 16
        sim = SimulatedPLR(
            Recurrence.parse("(1: 1)"), machine, seed=2,
            fault=FaultPlan.single(FaultKind.BIT_FLIP_CARRY, chunks=(10,), bit=20),
        )
        out = sim.run(values).output
        expected = np.cumsum(values, dtype=np.int32)
        np.testing.assert_array_equal(out[: 11 * m], expected[: 11 * m])
        assert not np.array_equal(out[11 * m :], expected[11 * m :])


class TestHealth:
    def test_array_health_clean_and_contaminated(self):
        clean = array_health(np.ones(4, dtype=np.float32))
        assert clean.finite and clean.max_abs == 1.0
        bad = array_health(np.array([1.0, np.nan, np.inf, -np.inf]))
        assert not bad.finite
        assert bad.nan_count == 1 and bad.inf_count == 2
        assert "contaminated" in bad.describe()

    def test_integer_arrays_always_healthy(self):
        report = array_health(np.array([2**31 - 1, -(2**31)], dtype=np.int32))
        assert report.finite

    def test_check_finite_raises_typed(self):
        with pytest.raises(NumericalError, match="phase 2 output"):
            check_finite(np.array([np.inf], dtype=np.float32), "phase 2 output")

    def test_spectral_radius_families(self):
        assert spectral_radius(Signature.parse("(1: 1)")) == pytest.approx(1.0)
        assert spectral_radius(Signature.parse("(1: 1.05)")) == pytest.approx(1.05)
        # Stable low-pass: all poles inside the unit circle.
        from repro.core.coefficients import low_pass

        assert spectral_radius(low_pass(2)) < 1.0
        # Fibonacci: golden ratio.
        assert spectral_radius(Signature.parse("(1: 1, 1)")) == pytest.approx(
            (1 + 5**0.5) / 2
        )

    def test_predict_table_overflow_log_space(self):
        sig = Signature.parse("(1: 1.05)")
        # ln(1.05) * 2047 = 99.9 > ln(float32 max) = 88.7
        assert predict_table_overflow(sig, 2048, np.float32)
        assert not predict_table_overflow(sig, 1024, np.float32)
        assert not predict_table_overflow(sig, 2048, np.float64)
        # Stable or neutral signatures never overflow.
        assert not predict_table_overflow(Signature.parse("(1: 1)"), 1 << 20, np.float32)
        # Integer tables wrap, not overflow.
        assert not predict_table_overflow(Signature.parse("(1: 3)"), 4096, np.int32)

    def test_factor_table_carries_prediction(self):
        sig = Signature.parse("(1: 1.05)")
        risky = CorrectionFactorTable.build(sig, 2048, np.float32)
        assert risky.overflow_risk
        assert risky.spectral_radius == pytest.approx(1.05)
        safe = CorrectionFactorTable.build(sig, 256, np.float32)
        assert not safe.overflow_risk
        integer = CorrectionFactorTable.build(Signature.parse("(1: 3)"), 64, np.int32)
        assert integer.spectral_radius is None
        assert not integer.overflow_risk


class TestResilientSolver:
    def test_healthy_solve_is_single_attempt(self):
        solver = ResilientSolver("(1: 1)")
        x = np.arange(64, dtype=np.int32)
        report = solver.solve_with_report(x)
        assert report.ok and not report.degraded
        assert [a.outcome for a in report.attempts] == ["ok"]
        np.testing.assert_array_equal(report.output, np.cumsum(x, dtype=np.int32))

    def test_float32_overflow_recovered_by_promotion(self):
        """The acceptance case: an unstable signature at a length where
        float32 overflows but float64 does not.  The chain must promote
        and land within reference tolerance."""
        solver = ResilientSolver("(1: 1.05)")
        x = np.ones(4096, dtype=np.float32)
        report = solver.solve_with_report(x)
        assert report.ok
        assert report.dtype == np.float64
        assert report.engine == "plr"  # recovered, not serial-fallback
        assert "dtype promoted float32 -> float64" in report.degradations
        assert [a.outcome for a in report.attempts] == ["numerical", "ok"]
        reference = serial_full(
            x, Signature.parse("(1: 1.05)"), dtype=np.float64
        )
        assert np.isfinite(report.output).all()
        verdict = compare_results(report.output, reference)
        assert verdict.ok, verdict.describe()

    def test_table_overflow_prediction_triggers_before_solving(self):
        """With a chunk size whose factor table saturates, the chain
        must reject the attempt up front (prediction, not detection)."""
        solver = ResilientSolver(
            "(1: 1.05)",
            chunk_size=4096,
            policy=FallbackPolicy(promote_dtype=False),
        )
        x = np.zeros(8192, dtype=np.float32)
        x[-2] = 1e-30  # output stays tiny: only the table is at risk
        report = solver.solve_with_report(x)
        assert report.ok
        first = report.attempts[0]
        assert first.outcome == "numerical"
        assert "predicted" in first.detail
        assert any("chunk size reduced" in d for d in report.degradations)

    def test_chunk_shrink_halves_until_safe(self):
        solver = ResilientSolver(
            "(1: 1.05)",
            chunk_size=4096,
            policy=FallbackPolicy(promote_dtype=False, min_chunk_size=64),
        )
        x = np.zeros(8192, dtype=np.float32)
        x[-2] = 1e-30
        report = solver.solve_with_report(x)
        assert report.ok and report.engine == "plr"
        # 4096 -> 2048 (still predicted to overflow) -> 1024 (safe)
        assert report.attempts[-1].chunk_size == 1024

    def test_sim_corruption_caught_by_paired_verification(self, machine):
        plan = FaultPlan.single(FaultKind.BIT_FLIP_CARRY, bit=30)
        solver = ResilientSolver(
            "(1: 1)", machine=machine, engine="sim", fault=plan,
            policy=FallbackPolicy(max_retries=1),
        )
        x = np.arange(160, dtype=np.int32)
        report = solver.solve_with_report(x)
        assert report.ok
        assert report.engine == "serial"  # fault plan corrupts every retry
        assert report.attempts[0].outcome == "corrupt"
        assert report.fault_events  # the injections were observed
        np.testing.assert_array_equal(report.output, np.cumsum(x, dtype=np.int32))

    def test_sim_deadlock_retries_then_serial(self, machine):
        plan = FaultPlan.single(FaultKind.DROP_GLOBAL_FLAG, chunks=(0,))
        solver = ResilientSolver(
            "(1: 1)", machine=machine, engine="sim", fault=plan,
            deadlock_rounds=50, policy=FallbackPolicy(max_retries=1),
        )
        x = np.arange(160, dtype=np.int32)
        report = solver.solve_with_report(x)
        assert report.ok and report.engine == "serial"
        assert [a.outcome for a in report.attempts] == ["deadlock", "deadlock", "ok"]
        assert report.attempts[0].seed != report.attempts[1].seed

    def test_serial_fallback_disabled_raises_typed(self, machine):
        plan = FaultPlan.single(FaultKind.DROP_GLOBAL_FLAG, chunks=(0,))
        solver = ResilientSolver(
            "(1: 1)", machine=machine, engine="sim", fault=plan,
            deadlock_rounds=50,
            policy=FallbackPolicy(max_retries=0, serial_fallback=False),
        )
        x = np.arange(160, dtype=np.int32)
        report = solver.solve_with_report(x)
        assert not report.ok
        assert isinstance(report.error, DeadlockError)
        with pytest.raises(DeadlockError):
            solver.solve(x)

    def test_exceeded_deadline_goes_serial(self):
        solver = ResilientSolver("(1: 1)", policy=FallbackPolicy(deadline_s=0.0))
        x = np.arange(64, dtype=np.int32)
        report = solver.solve_with_report(x)
        assert report.ok and report.engine == "serial"
        assert any("deadline" in d for d in report.degradations)

    def test_nonfinite_input_goes_straight_to_serial(self):
        solver = ResilientSolver("(0.2: 0.8)")
        x = np.ones(64, dtype=np.float32)
        x[5] = np.nan
        report = solver.solve_with_report(x)
        assert report.ok and report.engine == "serial"
        assert len(report.attempts) == 1  # no parallel attempt wasted

    def test_report_describe_is_readable(self):
        solver = ResilientSolver("(1: 1.05)")
        report = solver.solve_with_report(np.ones(4096, dtype=np.float32))
        text = report.describe()
        assert "OK via plr" in text
        assert "dtype promoted" in text

    def test_invalid_policy_and_engine_rejected(self):
        with pytest.raises(ValueError, match="verify"):
            FallbackPolicy(verify="maybe")
        with pytest.raises(ValueError, match="engine"):
            ResilientSolver("(1: 1)", engine="fpga")

    @pytest.mark.parametrize("backend", ["native", "auto"])
    def test_sim_engine_names_the_backend_it_rejects(self, backend):
        with pytest.raises(ValueError) as excinfo:
            ResilientSolver("(1: 1)", engine="sim", backend=backend)
        assert str(excinfo.value).startswith(f"backend={backend!r} applies to the plr engine")

    def test_plr_engine_refuses_a_machine(self, machine):
        with pytest.raises(ValueError, match="machine applies to the sim engine only"):
            ResilientSolver("(1: 1)", machine=machine)

    def test_sim_engine_rejects_unknown_backend_like_every_entry_point(self):
        with pytest.raises(ValueError, match="unknown backend 'turbo'; expected one of"):
            ResilientSolver("(1: 1)", engine="sim", backend="turbo")

    @pytest.mark.parametrize("backend", ["native", "auto"])
    def test_native_failure_degrades_to_numpy(self, backend, monkeypatch):
        """A kernel that cannot be built costs one ``backend`` attempt,
        then the numpy solver completes, whether the caller named native
        or auto resolved to it."""
        from repro.codegen import jit

        def broken(ir, workdir=None):
            raise BackendError("compiler crashed")

        monkeypatch.setattr(jit, "native_available", lambda: True)
        monkeypatch.setattr(jit, "native_kernel", broken)
        x = np.arange(1 << 15, dtype=np.int32) % 7
        report = ResilientSolver("(1: 1)", backend=backend).solve_with_report(x)
        assert report.ok and report.engine == "plr"
        assert [a.outcome for a in report.attempts] == ["backend", "ok"]
        assert report.degradations == [
            "native backend failed: numpy single-process fallback"
        ]
        np.testing.assert_array_equal(
            report.output, serial_full(x, Signature.parse("(1: 1)"))
        )

    @pytest.mark.parametrize("backend", ["native", "auto"])
    def test_every_solve_tries_the_accelerator_again(self, backend, monkeypatch):
        """The fallback to numpy lasts one solve: a kernel that always
        fails costs every solve its own ``backend`` attempt."""
        from repro.codegen import jit

        fetches = []

        def broken(ir, workdir=None):
            fetches.append(ir)
            raise BackendError("compiler crashed")

        monkeypatch.setattr(jit, "native_available", lambda: True)
        monkeypatch.setattr(jit, "native_kernel", broken)
        x = np.arange(1 << 15, dtype=np.int32) % 7
        solver = ResilientSolver("(1: 1)", backend=backend)
        for solves in range(1, 4):
            report = solver.solve_with_report(x)
            assert report.ok
            assert [a.outcome for a in report.attempts] == ["backend", "ok"]
            assert report.degradations == [
                "native backend failed: numpy single-process fallback"
            ]
            assert len(fetches) == solves
        assert solver.backend == backend

    @pytest.mark.native
    @pytest.mark.skipif(not native_available(), reason="no C compiler on this machine")
    def test_kernel_that_fails_once_runs_native_on_the_next_solve(self, monkeypatch):
        from repro.codegen import jit

        real = jit.native_kernel
        fetches = []

        def fails_once(ir, workdir=None):
            fetches.append(ir)
            if len(fetches) == 1:
                raise BackendError("compiler crashed")
            return real(ir, workdir)

        monkeypatch.setattr(jit, "native_kernel", fails_once)
        x = np.arange(4096, dtype=np.int32) % 7
        solver = ResilientSolver("(1: 1)", backend="native", tracer=True)
        first = solver.solve_with_report(x)
        assert [a.outcome for a in first.attempts] == ["backend", "ok"]
        assert not [e for e in solver.tracer.events if e.name == "native_kernel"]
        second = solver.solve_with_report(x)
        assert [a.outcome for a in second.attempts] == ["ok"]
        assert second.degradations == []
        assert len(fetches) == 2
        assert [e for e in solver.tracer.events if e.name == "native_kernel"]
        expected = serial_full(x, Signature.parse("(1: 1)"))
        np.testing.assert_array_equal(first.output, expected)
        np.testing.assert_array_equal(second.output, expected)


class TestFactorCache:
    def test_clear_factor_cache(self):
        from repro.plr.solver import PLRSolver, _cached_table, clear_factor_cache

        clear_factor_cache()
        solver = PLRSolver("(1: 2, -1)")
        solver.solve(np.arange(2048, dtype=np.int32))
        assert _cached_table.cache_info().currsize > 0
        clear_factor_cache()
        assert _cached_table.cache_info().currsize == 0
        # Solving again after a clear still works (cold rebuild).
        out = solver.solve(np.arange(16, dtype=np.int32))
        assert out.shape == (16,)

    def test_lossy_integer_request_builds_only_the_table_it_solves_with(self):
        """The integer check runs before the table lookup, and each
        attempt looks its table up once."""
        from repro.plr.solver import clear_factor_cache, factor_cache_stats

        clear_factor_cache()
        x = np.arange(100, dtype=np.int32)
        report = ResilientSolver("(0.2: 0.8)").solve_with_report(x, dtype=np.int32)
        stats = factor_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 0)
        assert [a.outcome for a in report.attempts] == ["numerical", "ok"]
        assert report.degradations == ["dtype promoted int32 -> float64"]
        assert report.dtype == np.float64
        clear_factor_cache()

    def test_cache_key_normalizes_dtype_spelling(self):
        from repro.plr.solver import _cached_table, clear_factor_cache
        from repro.plr.planner import plan_execution
        from repro.plr.solver import PLRSolver

        clear_factor_cache()
        solver = PLRSolver("(1: 1)")
        plan = plan_execution(Signature.parse("(1: 1)"), 2048)
        a = solver.factor_table(plan, np.float32)
        b = solver.factor_table(plan, np.dtype("float32"))
        assert a is b  # one cache entry for both spellings
        clear_factor_cache()


class TestChaosHarness:
    def test_random_fault_plan_is_reproducible(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        assert random_fault_plan(rng1, 10, seed=1) == random_fault_plan(
            rng2, 10, seed=1
        )

    def test_unknown_recurrence_typed_error(self):
        with pytest.raises(ReproError, match="unknown Table 1"):
            run_chaos(cases=1, recurrences=["nope"])

    def test_sweep_outcome_accounting(self):
        report = run_chaos(cases=12, seed=99)
        assert len(report.outcomes) == 12
        assert sum(report.counts().values()) == 12
        assert "12 cases" in report.describe()
        # Typed errors are only legal when the serial fallback was off.
        for outcome in report.outcomes:
            if outcome.status == "typed_error":
                assert not outcome.case.serial_fallback

    @pytest.mark.chaos
    def test_chaos_invariant_200_cases(self):
        """The acceptance sweep: >= 200 random (fault plan x scheduler
        seed x recurrence) combinations, every one ending in a correct
        output or a typed error.  Fully seeded; a failure names the
        case that reproduces it."""
        report = run_chaos(cases=200, seed=20180324)
        assert len(report.outcomes) == 200
        assert report.ok, report.describe()
        # The sweep must actually exercise faults, degradations, and
        # every recurrence family — otherwise it proves nothing.
        assert sum(o.fault_events for o in report.outcomes) > 100
        assert sum(1 for o in report.outcomes if o.degraded) > 20
        assert len({o.case.recurrence for o in report.outcomes}) == 11


class TestNestedDegradationOrdering:
    """Satellite of the serving PR: the fallback chain's attempt record
    must pin the exact degradation sequence when failures nest."""

    @pytest.fixture(autouse=True)
    def _failing_native_kernel(self, monkeypatch):
        from repro.codegen import jit

        def broken(ir, workdir=None):
            raise BackendError("compiler crashed")

        monkeypatch.setattr(jit, "native_kernel", broken)

    def test_native_failure_then_overflow_then_promotion(self):
        """native kernel fails -> numpy single-process fallback (no
        retry consumed) -> float32 overflow detected -> dtype promotion
        -> success.  The SolveReport must record exactly that story, in
        that order."""
        solver = ResilientSolver("(1: 1.05)", backend="native")
        x = np.ones(4096, dtype=np.float32)
        report = solver.solve_with_report(x)
        assert report.ok
        assert report.engine == "plr"  # recovered, not serial fallback
        assert report.dtype == np.float64
        assert [a.outcome for a in report.attempts] == [
            "backend", "numerical", "ok",
        ]
        assert report.degradations == [
            "native backend failed: numpy single-process fallback",
            "dtype promoted float32 -> float64",
        ]
        # The native attempt kept the original dtype; promotion only
        # happened after the overflow was detected on numpy.
        assert report.attempts[0].dtype == "float32"
        assert report.attempts[1].dtype == "float32"
        assert report.attempts[2].dtype == "float64"
        reference = serial_full(x, Signature.parse("(1: 1.05)"), dtype=np.float64)
        verdict = compare_results(report.output, reference)
        assert verdict.ok, verdict.describe()

    def test_native_failure_alone_consumes_no_retry(self):
        solver = ResilientSolver(
            "(1: 1)", backend="native", policy=FallbackPolicy(max_retries=0)
        )
        x = np.arange(4096, dtype=np.int32)
        report = solver.solve_with_report(x)
        assert report.ok and report.engine == "plr"
        assert [a.outcome for a in report.attempts] == ["backend", "ok"]
        assert report.degradations == [
            "native backend failed: numpy single-process fallback",
        ]
        np.testing.assert_array_equal(report.output, np.cumsum(x, dtype=np.int32))


class TestChaosExtensions:
    """Satellite of the serving PR: the chaos sweep reaches the batch
    engine's mixed queues."""

    @pytest.mark.chaos
    def test_engine_chaos_mixed_queue(self):
        """One BatchEngine pass over a queue interleaving healthy
        requests with empties, NaN poison, float32 overflow bombs,
        fractional-coefficient integers, and pre-expired deadlines:
        every outcome correct or typed."""
        from repro.resilience.chaos import run_engine_chaos

        report = run_engine_chaos(seed=20180324, requests=64)
        assert report.ok, report.describe()
        counts = report.counts()
        assert counts.get("expired:typed_error", 0) >= 8
        assert counts.get("nan_poisoned:correct", 0) >= 8
        assert counts.get("overflow:correct", 0) >= 8
