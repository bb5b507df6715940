"""Execution planning: the paper's m / x / T / register heuristics."""

import pytest

from repro.core.errors import PlanError
from repro.core.signature import Signature
from repro.gpusim.spec import MachineSpec
from repro.plr.planner import MAX_PIPELINE_DEPTH, plan_execution, tuned_plan


TITAN = MachineSpec.titan_x()


class TestRegisterHeuristic:
    def test_float_gets_32(self):
        plan = plan_execution(Signature.parse("(0.2: 0.8)"), 1 << 20, TITAN)
        assert plan.registers_per_thread == 32

    def test_simple_integer_gets_32(self):
        # "integer signatures that only contain ones and zeros".
        for text in ["(1: 1)", "(1: 0, 1)", "(1: 0, 0, 1)"]:
            plan = plan_execution(Signature.parse(text), 1 << 20, TITAN)
            assert plan.registers_per_thread == 32, text

    def test_complex_integer_gets_64(self):
        for text in ["(1: 2, -1)", "(1: 3, -3, 1)"]:
            plan = plan_execution(Signature.parse(text), 1 << 20, TITAN)
            assert plan.registers_per_thread == 64, text


class TestResidency:
    def test_32_regs_two_blocks_per_sm(self):
        # 65536 / (32 * 1024) = 2 blocks per SM, 24 SMs -> T = 48.
        plan = plan_execution(Signature.prefix_sum(), 1 << 20, TITAN)
        assert plan.resident_blocks == 48

    def test_64_regs_one_block_per_sm(self):
        plan = plan_execution(Signature.parse("(1: 2, -1)"), 1 << 20, TITAN)
        assert plan.resident_blocks == 24


class TestGrainSelection:
    def test_x_is_smallest_to_cover(self):
        # x * 1024 * T > n with T = 48; n small enough not to hit the cap.
        n = 100_000
        plan = plan_execution(Signature.prefix_sum(), n, TITAN)
        assert plan.values_per_thread * 1024 * 48 > n
        assert (plan.values_per_thread - 1) * 1024 * 48 <= n

    def test_x_capped_float(self):
        plan = plan_execution(Signature.parse("(0.2: 0.8)"), 1 << 30, TITAN)
        assert plan.values_per_thread == 9

    def test_x_capped_integer(self):
        plan = plan_execution(Signature.prefix_sum(), 1 << 30, TITAN)
        assert plan.values_per_thread == 11

    def test_chunk_is_1024x(self):
        plan = plan_execution(Signature.prefix_sum(), 1 << 24, TITAN)
        assert plan.chunk_size == 1024 * plan.values_per_thread

    def test_small_input_x_one(self):
        plan = plan_execution(Signature.prefix_sum(), 1000, TITAN)
        assert plan.values_per_thread == 1

    def test_boundary_exactly_covered(self):
        # n exactly x*1024*T must bump x (strict inequality in paper).
        n = 1024 * 48
        plan = plan_execution(Signature.prefix_sum(), n, TITAN)
        assert plan.values_per_thread == 2


class TestPlanShape:
    def test_num_chunks_ceil(self):
        plan = plan_execution(Signature.prefix_sum(), 5000, TITAN)
        assert plan.num_chunks == -(-5000 // plan.chunk_size)
        assert plan.padded_n >= 5000

    def test_pipeline_depth(self):
        plan = plan_execution(Signature.prefix_sum(), 1 << 16, TITAN)
        assert plan.pipeline_depth == MAX_PIPELINE_DEPTH == 32

    def test_warps_per_block(self):
        plan = plan_execution(Signature.prefix_sum(), 1 << 16, TITAN)
        assert plan.warps_per_block == 32

    def test_describe_contains_key_params(self):
        text = plan_execution(Signature.prefix_sum(), 1 << 16, TITAN).describe()
        for key in ("m=", "x=", "regs="):
            assert key in text


class TestLimits:
    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            plan_execution(Signature.prefix_sum(), 0, TITAN)

    def test_4gb_limit(self):
        # "PLR supports sequences of any length up to 4 GB."
        plan_execution(Signature.prefix_sum(), 2**30, TITAN)  # ok
        with pytest.raises(PlanError):
            plan_execution(Signature.prefix_sum(), 2**30 + 1, TITAN)

    def test_small_machine(self):
        machine = MachineSpec.small_test_gpu()
        plan = plan_execution(Signature.prefix_sum(), 500, machine)
        assert plan.block_size == machine.max_threads_per_block


class TestAutoTuner:
    def test_picks_objective_minimum(self):
        # Objective: prefer x == 3 explicitly.
        plan = tuned_plan(
            Signature.prefix_sum(),
            1 << 20,
            objective=lambda p: abs(p.values_per_thread - 3),
        )
        assert plan.values_per_thread == 3
        assert plan.chunk_size == 3072

    def test_respects_bounds(self):
        with pytest.raises(PlanError):
            tuned_plan(
                Signature.prefix_sum(),
                1 << 20,
                objective=lambda p: 0.0,
                candidate_x=[99],
            )

    @pytest.mark.parametrize(
        "objective,candidates,cause",
        [
            (lambda p: 0.0, [], "empty"),
            (lambda p: float("inf"), None, "inf or NaN"),
            (lambda p: float("nan"), None, "inf or NaN"),
        ],
        ids=["no-candidates", "all-inf", "all-nan"],
    )
    def test_no_choosable_candidate_raises_typed(self, objective, candidates, cause):
        with pytest.raises(PlanError, match=cause):
            tuned_plan(
                Signature.prefix_sum(),
                1 << 20,
                objective=objective,
                candidate_x=candidates,
            )

    def test_tuned_with_cost_model(self):
        # Auto-tune against the actual analytic model, like SAM does.
        from repro.baselines.plr_code import PLRCode
        from repro.baselines.base import Workload
        from repro.core.recurrence import Recurrence
        from repro.gpusim.cost import CostModel

        code = PLRCode()
        model = CostModel(TITAN)
        recurrence = Recurrence.parse("(1: 1)")
        workload = Workload(recurrence, 1 << 18)

        def objective(plan):
            traffic = code.traffic(workload, TITAN)
            return model.time(traffic)

        plan = tuned_plan(Signature.prefix_sum(), 1 << 18, objective)
        assert 1 <= plan.values_per_thread <= 11
