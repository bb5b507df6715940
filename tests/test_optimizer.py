"""The Section 3.1 optimizer: realizations, toggles, and invariants."""

import numpy as np
import pytest

from repro.core.coefficients import table1_signatures
from repro.core.signature import Signature
from repro.plr.factors import CorrectionFactorTable
from repro.plr.optimizer import (
    SHARED_MEMORY_FACTOR_CAPACITY,
    FactorRealization,
    OptimizationConfig,
    optimize_factors,
)


def plan_for(text: str, m: int = 64, dtype=np.int64, config=None):
    sig = Signature.parse(text).recursive_part()
    table = CorrectionFactorTable.build(sig, m, dtype)
    return optimize_factors(table, config)


class TestRealizations:
    def test_prefix_sum_constant(self):
        plan = plan_for("(1: 1)")
        assert plan.decisions[0].realization == FactorRealization.CONSTANT
        assert plan.decisions[0].constant == 1

    def test_tuple_zero_one_with_period(self):
        plan = plan_for("(1: 0, 1)")
        for decision in plan.decisions:
            assert decision.realization == FactorRealization.ZERO_ONE
            assert decision.period == 2

    def test_higher_order_buffered(self):
        plan = plan_for("(1: 2, -1)")
        for decision in plan.decisions:
            assert decision.realization == FactorRealization.BUFFERED_ARRAY

    def test_filter_truncated(self):
        plan = plan_for("(1: 0.8)", m=2048, dtype=np.float32)
        decision = plan.decisions[0]
        assert decision.realization == FactorRealization.TRUNCATED
        assert 300 < decision.cutoff < 500

    def test_alternating_periodic(self):
        plan = plan_for("(1: -1)")
        decision = plan.decisions[0]
        assert decision.realization == FactorRealization.PERIODIC
        assert decision.period == 2

    def test_shift_suppression_extension(self):
        plan = plan_for("(1: 1, 1)", config=OptimizationConfig.extended())
        assert plan.decisions[1].realization == FactorRealization.SHIFT_OF_FIRST
        assert plan.decisions[1].scale == 1

    def test_shift_suppression_off_by_default(self):
        plan = plan_for("(1: 1, 1)")
        assert plan.decisions[1].realization == FactorRealization.BUFFERED_ARRAY


class TestDisabledConfig:
    def test_everything_global(self):
        config = OptimizationConfig.disabled()
        for text in ["(1: 1)", "(1: 0, 1)", "(1: 2, -1)"]:
            plan = plan_for(text, config=config)
            for decision in plan.decisions:
                assert decision.realization == FactorRealization.GLOBAL_ARRAY

    def test_no_shared_buffer(self):
        plan = plan_for("(1: 1)", config=OptimizationConfig.disabled())
        assert plan.shared_buffer_elements == 0

    def test_no_truncation(self):
        config = OptimizationConfig.disabled()
        plan = plan_for("(1: 0.8)", m=2048, dtype=np.float32, config=config)
        assert plan.phase1_active_elements == 2048


class TestPartialToggles:
    def test_constants_only(self):
        config = OptimizationConfig(
            buffer_in_shared=False,
            fold_constants=True,
            zero_one_conditional=False,
            fold_repeats=False,
            truncate_decayed=False,
        )
        plan = plan_for("(1: 1)", config=config)
        assert plan.decisions[0].realization == FactorRealization.CONSTANT

    def test_zero_one_without_repeats_loses_period(self):
        config = OptimizationConfig(fold_repeats=False)
        plan = plan_for("(1: 0, 1)", config=config)
        assert plan.decisions[0].realization == FactorRealization.ZERO_ONE
        assert plan.decisions[0].period is None

    def test_repeats_without_zero_one(self):
        config = OptimizationConfig(zero_one_conditional=False)
        plan = plan_for("(1: 0, 1)", config=config)
        assert plan.decisions[0].realization == FactorRealization.PERIODIC


class TestPlanAccounting:
    def test_shared_buffer_capped_at_1024(self):
        plan = plan_for("(1: 2, -1)", m=4096)
        assert plan.shared_buffer_elements == SHARED_MEMORY_FACTOR_CAPACITY

    def test_shared_buffer_capped_at_m(self):
        plan = plan_for("(1: 2, -1)", m=64)
        assert plan.shared_buffer_elements == 64

    def test_stored_words_constant_is_zero(self):
        plan = plan_for("(1: 1)", m=128)
        assert plan.stored_factor_words() == 0

    def test_stored_words_periodic(self):
        plan = plan_for("(1: 0, 0, 1)", m=128)
        assert plan.stored_factor_words() == 3 * 3  # three rows, period 3

    def test_stored_words_truncated(self):
        plan = plan_for("(1: 0.8)", m=2048, dtype=np.float32)
        cutoff = plan.decisions[0].cutoff
        assert plan.stored_factor_words() == cutoff

    def test_stored_words_unoptimized_is_full(self):
        plan = plan_for("(1: 2, -1)", m=128, config=OptimizationConfig.disabled())
        assert plan.stored_factor_words() == 2 * 128

    def test_active_elements_from_decay(self):
        plan = plan_for("(1: 0.8)", m=2048, dtype=np.float32)
        assert plan.phase1_active_elements == plan.table.max_decay_index

    def test_uses_multiplies_flag(self):
        assert not plan_for("(1: 1)").uses_multiplies  # constant 1
        assert not plan_for("(1: 0, 1)").uses_multiplies  # zero/one
        assert plan_for("(1: 2, -1)").uses_multiplies


class TestSemanticsPreserved:
    """Optimized and unoptimized solves produce identical results."""

    @pytest.mark.parametrize("name", list(table1_signatures()))
    def test_solver_agrees(self, name, rng):
        from repro.core.recurrence import Recurrence
        from repro.plr.solver import PLRSolver

        sig = table1_signatures()[name]
        rec = Recurrence(sig)
        values = (
            rng.integers(-40, 40, 5000).astype(np.int32)
            if sig.is_integer
            else rng.standard_normal(5000).astype(np.float32)
        )
        optimized = PLRSolver(rec).solve(values)
        plain = PLRSolver(rec, optimization=OptimizationConfig.disabled()).solve(values)
        np.testing.assert_array_equal(optimized, plain)


def test_default_config_is_all_paper_optimizations():
    config = OptimizationConfig()
    assert config.buffer_in_shared
    assert config.fold_constants
    assert config.zero_one_conditional
    assert config.fold_repeats
    assert config.truncate_decayed
    assert not config.suppress_shifted_duplicate  # future work: opt-in


class TestPlanMemo:
    def test_repeat_lookups_return_the_memoized_plan(self):
        table = CorrectionFactorTable.build(
            Signature.parse("(1: 1.6, -0.64)"), 256, np.float32
        )
        plan = optimize_factors(table)
        assert optimize_factors(table) is plan
        assert optimize_factors(table, OptimizationConfig()) is plan
        disabled = optimize_factors(table, OptimizationConfig.disabled())
        assert disabled is not plan
        assert disabled.config == OptimizationConfig.disabled()
        assert optimize_factors(table, OptimizationConfig.disabled()) is disabled
