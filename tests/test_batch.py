"""The batched execution engine: grouping, equivalence, isolation.

The invariant everything here pins: a request routed through
``repro.batch`` produces what a dedicated per-request
:class:`~repro.plr.solver.PLRSolver` would have produced — exactly for
integer dtypes (wrap-around arithmetic is chunking-invariant), and
within the library's float tolerance otherwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchEngine,
    BatchPlanner,
    BatchRequest,
    BatchSolver,
    execute_batch,
)
from repro.core.coefficients import table1_signatures
from repro.core.errors import NumericalError
from repro.core.recurrence import Recurrence
from repro.core.validation import assert_valid
from repro.obs.tracer import Tracer
from repro.plr.phase2 import TILE_BYTES
from repro.plr.solver import PLRSolver, clear_factor_cache, factor_cache_stats
from repro.resilience.solver import FallbackPolicy
from tests.conftest import make_values

TABLE1 = table1_signatures()


def per_request(signature, values, dtype=None):
    return PLRSolver(signature).solve(np.asarray(values), dtype=dtype)


class TestBatchSolverEquivalence:
    def test_all_table1_rows_match_per_request(self, table1_recurrence):
        batch = np.stack(
            [make_values(table1_recurrence, 3000, seed=s) for s in range(6)]
        )
        out = BatchSolver(table1_recurrence).solve(batch)
        solver = PLRSolver(table1_recurrence)
        for row in range(batch.shape[0]):
            expected = solver.solve(batch[row])
            if np.issubdtype(out.dtype, np.integer):
                assert np.array_equal(out[row], expected)
            else:
                assert_valid(out[row], expected, context=f"row {row}")

    def test_integer_rows_are_bit_exact(self, rng):
        batch = rng.integers(-100, 100, size=(16, 2500)).astype(np.int32)
        out = BatchSolver("(1: 2, -1)").solve(batch)
        solver = PLRSolver("(1: 2, -1)")
        assert out.dtype == np.int32
        for row in range(16):
            assert np.array_equal(out[row], solver.solve(batch[row]))

    def test_single_chunk_floats_are_bit_exact(self, rng):
        # Within one chunk there is no carry spine, so the batched pass
        # runs the identical arithmetic as the per-request solver.
        batch = rng.standard_normal((8, 900)).astype(np.float32)
        out = BatchSolver("(1: 0.9)").solve(batch)
        solver = PLRSolver("(1: 0.9)")
        for row in range(8):
            assert np.array_equal(out[row], solver.solve(batch[row]))

    def test_no_per_request_python_loop(self, rng, monkeypatch):
        # The vectorized pass must never fall back to row-at-a-time
        # solving: solving any 1D sequence during a batch solve fails.
        import repro.plr.solver as solver_mod

        def forbid(self, values, plan=None, dtype=None):  # pragma: no cover
            raise AssertionError("batched path called the per-request solver")

        monkeypatch.setattr(solver_mod.PLRSolver, "solve", forbid)
        batch = rng.integers(-9, 9, size=(4, 300)).astype(np.int32)
        out = BatchSolver("(1: 1)").solve(batch)
        assert np.array_equal(out, np.cumsum(batch, axis=1, dtype=np.int32))

    def test_empty_batch_and_empty_rows(self):
        solver = BatchSolver("(1: 1)")
        assert solver.solve(np.zeros((0, 10), dtype=np.int32)).shape == (0, 10)
        assert solver.solve(np.zeros((3, 0), dtype=np.int32)).shape == (3, 0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2D"):
            BatchSolver("(1: 1)").solve(np.arange(5))

    def test_lossy_integer_coefficients_raise_typed(self):
        with pytest.raises(NumericalError, match="fractional"):
            BatchSolver("(1: 0.5)").solve(
                np.ones((2, 8), dtype=np.int32), dtype=np.int32
            )

    @pytest.mark.parametrize("ragged", [False, True])
    def test_native_failure_degrades_like_the_single_solver(
        self, ragged, rng, monkeypatch
    ):
        """A kernel that cannot be built degrades the whole batch to the
        numpy pass, counted and traced once per solve, as on PLRSolver."""
        from repro.codegen import jit
        from repro.core.errors import BackendError
        from repro.obs.metrics import global_metrics

        def broken(ir, workdir=None):
            raise BackendError("compiler crashed")

        monkeypatch.setattr(jit, "native_kernel", broken)
        batch = rng.integers(-50, 50, size=(4, 3000)).astype(np.int32)
        values = [row[: 100 * (i + 1)] for i, row in enumerate(batch)] if ragged else batch
        fallbacks = global_metrics().counter("native.fallbacks")
        before = fallbacks.value
        tracer = Tracer()
        solver = BatchSolver("(1: 2, -1)", tracer=tracer, backend="native")
        for _ in range(2):
            got = solver.solve(values)
        expected = BatchSolver("(1: 2, -1)").solve(values)
        for out, want in zip(got, expected):
            assert out.tobytes() == want.tobytes()
        assert fallbacks.value - before == 2
        instants = [e for e in tracer.events if e.name == "native_fallback"]
        assert len(instants) == 2
        assert "compiler crashed" in instants[0].args["error"]


class TestBatchPlanner:
    def test_groups_by_signature_dtype_and_chunk_size(self):
        planner = BatchPlanner()
        requests = [
            BatchRequest("(1: 1)", np.arange(10, dtype=np.int32)),
            BatchRequest("(1: 1)", np.arange(100, dtype=np.int32)),
            BatchRequest("(1: 1)", np.arange(50, dtype=np.int32)),
            BatchRequest("(1: 2, -1)", np.arange(10, dtype=np.int32)),
            BatchRequest("(1: 1)", np.arange(10, dtype=np.float32)),
            BatchRequest("(1: 1)", np.arange(50000, dtype=np.int32)),
        ]
        groups = planner.plan(requests)
        # Lengths of one chunk size share a group: (1:1)/int32 holds its
        # three short requests (m = 1024); the other signature and the
        # float dtype each get their own group, and so does the row
        # whose own plan takes m = 2048.
        assert [g.batch_size for g in groups] == [3, 1, 1, 1]
        assert [g.indices for g in groups] == [[0, 1, 2], [3], [4], [5]]
        # Each group is planned for its longest member, whose plan has
        # every member's chunk size.
        assert [g.bucket for g in groups] == [100, 10, 10, 50000]
        solver = BatchSolver("(1: 1)")
        for group in groups:
            m = solver.plan_for(group.bucket).chunk_size
            assert all(solver.plan_for(r.n).chunk_size == m for r in group.requests)
        assert solver.plan_for(groups[-1].bucket).chunk_size == 2048

    def test_padding_counts_packed_chunks_and_stacking(self):
        planner = BatchPlanner()
        requests = [
            BatchRequest("(1: 1)", np.arange(1, 6, dtype=np.int64), dtype=np.int32),
            BatchRequest("(1: 1)", np.arange(1, 8, dtype=np.int32)),
            BatchRequest("(1: 1)", np.arange(1, 10, dtype=np.int32)),
        ]
        (group,) = planner.plan(requests)
        assert group.bucket == 9
        # Every row rounds up to whole 8-word chunks.
        assert group.padding(8) == (8 - 5) + (8 - 7) + (16 - 9)
        stacked = group.stacked()
        assert [row.dtype for row in stacked] == [np.int32] * 3
        assert [row.tolist() for row in stacked] == [
            [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 7], list(range(1, 10))
        ]

    def test_rows_with_a_map_stage_pad_to_whole_chunks_only(self):
        # Each row's map stage reads only its own values, so rows need
        # no gap: 7 words take one 8-word chunk, 8 words exactly one.
        planner = BatchPlanner()
        requests = [
            BatchRequest("(0.5, 0.5: 0.9)", np.ones(n, dtype=np.float32))
            for n in (7, 8)
        ]
        (group,) = planner.plan(requests)
        assert group.padding(8) == (8 - 7) + 0

    def test_max_batch_splits_in_order(self):
        planner = BatchPlanner(max_batch=2)
        requests = [
            BatchRequest("(1: 1)", np.full(4 + i, i, dtype=np.int32)) for i in range(5)
        ]
        groups = planner.plan(requests)
        assert [g.batch_size for g in groups] == [2, 2, 1]
        assert [g.indices for g in groups] == [[0, 1], [2, 3], [4]]
        # Each split is planned for its own longest member.
        assert [g.bucket for g in groups] == [5, 7, 8]

    def test_skips_empty_requests(self):
        planner = BatchPlanner()
        groups = planner.plan(
            [BatchRequest("(1: 1)", np.zeros(0, dtype=np.int32))]
        )
        assert groups == []

    def test_request_resolves_paper_dtype(self):
        ints = np.arange(3, dtype=np.int32)
        assert BatchRequest("(1: 1)", ints).dtype == np.int32
        assert BatchRequest("(0.2: 0.8)", ints).dtype == np.float32

    def test_request_rejects_2d_values(self):
        with pytest.raises(ValueError, match="1D"):
            BatchRequest("(1: 1)", np.zeros((2, 3)))


class TestBatchEngine:
    def test_mixed_queue_matches_per_request(self, rng):
        specs = [
            ("(1: 1)", rng.integers(-50, 50, size=200).astype(np.int32)),
            ("(1: 2, -1)", rng.integers(-50, 50, size=150).astype(np.int32)),
            ("(0.2: 0.8)", rng.standard_normal(90).astype(np.float32)),
            ("(1: 1)", rng.integers(-50, 50, size=40).astype(np.int32)),
            ("(0.2: 0.8)", rng.standard_normal(90).astype(np.float32)),
        ]
        requests = [BatchRequest(s, v, tag=i) for i, (s, v) in enumerate(specs)]
        outcomes = execute_batch(requests)
        assert [o.tag for o in outcomes] == [0, 1, 2, 3, 4]
        for outcome, (signature, values) in zip(outcomes, specs):
            assert outcome.ok
            expected = per_request(signature, values)
            if np.issubdtype(expected.dtype, np.integer):
                assert np.array_equal(outcome.output, expected)
            else:
                assert_valid(outcome.output, expected)

    def test_empty_request_short_circuits(self):
        outcomes = execute_batch(
            [BatchRequest("(1: 1)", np.zeros(0, dtype=np.int32), tag="e")]
        )
        (outcome,) = outcomes
        assert outcome.ok and outcome.engine == "empty"
        assert outcome.output.size == 0 and outcome.output.dtype == np.int32

    def test_failing_request_degrades_alone(self, rng):
        # One poisoned request (int dtype, fractional coefficient) rides
        # with two healthy ones; only it leaves the batched path.
        healthy = rng.integers(-5, 5, size=30).astype(np.int32)
        requests = [
            BatchRequest("(1: 1)", healthy, tag="h1"),
            BatchRequest("(1: 0.5)", np.arange(1, 9, dtype=np.int32),
                         dtype=np.int32, tag="poison"),
            BatchRequest("(1: 1)", healthy, tag="h2"),
        ]
        engine = BatchEngine()
        outcomes = {o.tag: o for o in engine.execute(requests)}
        assert outcomes["h1"].engine == "batch" and outcomes["h1"].ok
        assert outcomes["h2"].engine == "batch" and outcomes["h2"].ok
        poisoned = outcomes["poison"]
        assert poisoned.ok and poisoned.isolated
        assert any("float64" in d for d in poisoned.degradations)
        assert_valid(
            poisoned.output,
            per_request("(1: 0.5)", np.arange(1, 9), dtype=np.float64),
        )
        counters = engine.metrics.snapshot()["counters"]
        assert counters["batch.isolated"] == 1

    def test_isolation_failure_is_typed_not_raised(self):
        # With every rescue disabled the poisoned request must carry a
        # typed error while its batch-mates still succeed.
        policy = FallbackPolicy(
            promote_dtype=False, shrink_chunk=False, serial_fallback=False
        )
        requests = [
            BatchRequest("(1: 1)", np.arange(5, dtype=np.int32), tag="ok"),
            BatchRequest("(1: 0.5)", np.arange(1, 5, dtype=np.int32),
                         dtype=np.int32, tag="bad"),
        ]
        outcomes = {o.tag: o for o in BatchEngine(policy=policy).execute(requests)}
        assert outcomes["ok"].ok
        bad = outcomes["bad"]
        assert not bad.ok and bad.output is None
        assert isinstance(bad.error, NumericalError)

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="backend"):
            BatchEngine(backend="turbo")

    def test_metrics_account_for_groups_and_padding(self, rng):
        engine = BatchEngine()
        requests = [
            BatchRequest("(1: 1)", rng.integers(-5, 5, size=20).astype(np.int32)),
            BatchRequest("(1: 1)", rng.integers(-5, 5, size=3000).astype(np.int32)),
            BatchRequest("(1: 1)", np.zeros(0, dtype=np.int32)),
        ]
        engine.execute(requests)
        snap = engine.metrics.snapshot()
        assert snap["counters"]["batch.requests"] == 3
        assert snap["counters"]["batch.groups"] == 1
        assert snap["counters"]["batch.empty_requests"] == 1
        # The packed pass computes whole chunks of the group's plan:
        # sum over rows of chunks * m - n.
        m = BatchSolver("(1: 1)").plan_for(3000).chunk_size
        expected = sum(-(-n // m) * m - n for n in (20, 3000))
        assert snap["counters"]["batch.padded_values"] == expected
        assert snap["histograms"]["batch.group_size"]["count"] == 1

    def test_group_solve_builds_factor_table_once(self, rng):
        clear_factor_cache()
        engine = BatchEngine()
        requests = [
            BatchRequest("(1: 2, -1)", rng.integers(-5, 5, size=100).astype(np.int32))
            for _ in range(16)
        ]
        engine.execute(requests)
        assert factor_cache_stats()["misses"] == 1

    def test_traced_run_emits_group_spans(self, rng):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        engine = BatchEngine(tracer=tracer)
        engine.execute(
            [BatchRequest("(1: 1)", rng.integers(-5, 5, size=10).astype(np.int32))]
        )
        names = [e.name for e in tracer.events if e.cat == "batch"]
        assert "batch_group" in names


def packed_cases() -> list:
    """(name, dtype) for every Table-1 signature in each dtype it runs in."""
    return [
        pytest.param(name, dtype, id=f"{name}-{np.dtype(dtype).name}")
        for name, signature in TABLE1.items()
        for dtype in (np.int32, np.float32, np.float64)
        if signature.is_integer or dtype is not np.int32
    ]


def ragged_rows(signature, dtype, rng) -> list[np.ndarray]:
    """Rows around the group plan's chunk size m, plus one row longer
    than a tile, which is also the row the group is planned for."""
    longest = TILE_BYTES // np.dtype(dtype).itemsize + 1000
    m = BatchSolver(signature).plan_for(longest).chunk_size
    k, p = signature.order, signature.fir_order
    lengths = [1, 2, max(1, k - 1), 17, 64, m - p - 1, m - p, m - 1, m, m + 1]
    lengths[5:5] = [longest, 2 * m + 3]
    if np.issubdtype(dtype, np.integer):
        return [rng.integers(-100, 100, n).astype(dtype) for n in lengths]
    return [rng.standard_normal(n).astype(dtype) for n in lengths]


class TestPackedPass:
    """A group's ragged rows run as one packed pass whose carry spine
    restarts at each row; every row equals its solo solve under the
    pass's plan bit for bit, floats included."""

    @pytest.mark.parametrize("name,dtype", packed_cases())
    def test_rows_equal_solo_solves_under_the_group_plan(self, name, dtype, rng):
        signature = TABLE1[name]
        rows = ragged_rows(signature, dtype, rng)
        solver = BatchSolver(signature)
        plan = solver.plan_for(max(row.size for row in rows))
        solo = PLRSolver(signature)
        with np.errstate(all="ignore"):
            outputs = solver.solve(rows, dtype=dtype)
            expected = [solo.solve(row, plan=plan, dtype=dtype) for row in rows]
            # The engine groups rows by their own plan's chunk size, so
            # each is solved under its own plan.
            own = [solo.solve(row, dtype=dtype) for row in rows]
            outcomes = BatchEngine().execute(
                [BatchRequest(signature, row, dtype=dtype) for row in rows]
            )
        assert isinstance(outputs, list) and len(outputs) == len(rows)
        for row, out, want, mine, outcome in zip(rows, outputs, expected, own, outcomes):
            assert out.dtype == want.dtype and out.shape == row.shape
            assert out.tobytes() == want.tobytes()
            if outcome.engine == "batch":
                assert outcome.output.tobytes() == mine.tobytes()
            else:
                # Only a row whose own solve is not finite leaves the pass.
                assert outcome.isolated and not np.isfinite(mine).all()
            if np.issubdtype(dtype, np.integer):
                # Integers are chunking-invariant: the row's own plan agrees.
                np.testing.assert_array_equal(out, mine)

    @pytest.mark.parametrize("name", ["high_pass_2", "low_pass_1", "high_pass_3"])
    def test_poisoned_rows_do_not_leak_into_neighbours(self, name, rng):
        signature = TABLE1[name]
        solver = BatchSolver(signature)
        m = solver.plan_for(3000).chunk_size
        # Rows filling whole chunks leave no padding between neighbours.
        rows = [
            rng.standard_normal(n).astype(np.float32)
            for n in (m, 3 * m, m, 2 * m, 700)
        ]
        rows[1][-1] = np.inf  # the word right before the next row
        rows[3][0] = np.nan  # the word right after a finite row
        plan = solver.plan_for(3 * m)
        assert plan.chunk_size == m
        with np.errstate(all="ignore"):
            outputs = solver.solve(rows)
            outcomes = BatchEngine().execute(
                [BatchRequest(signature, row) for row in rows]
            )
        for i in (0, 2, 4):
            want = PLRSolver(signature).solve(rows[i], plan=plan)
            assert np.isfinite(outputs[i]).all()
            assert np.array_equal(outputs[i], want)
            assert np.array_equal(outcomes[i].output, want)
        assert [o.isolated for o in outcomes] == [False, True, False, True, False]

    def test_one_group_per_signature_dtype_and_chunk_size(self, rng):
        engine = BatchEngine()
        requests = [
            BatchRequest(signature, make_values(Recurrence.parse(signature), n))
            for signature in ("(1: 1)", "(0.2: 0.8)", "(1: 2, -1)")
            for n in (5, 700, 1500, 40000)
        ]
        requests.append(BatchRequest("(1: 1)", np.ones(30, dtype=np.float32)))
        outcomes = engine.execute(requests)
        assert all(o.ok and o.engine == "batch" for o in outcomes)
        # (1: 2, -1) plans 64 registers, so its 40000-word row takes
        # m = 2048 and a pass of its own; every other row has m = 1024.
        assert BatchSolver("(1: 2, -1)").plan_for(40000).chunk_size == 2048
        snap = engine.metrics.snapshot()
        assert snap["counters"]["batch.groups"] == 5
        sizes = snap["histograms"]["batch.group_size"]
        assert sizes["count"] == 5 and sizes["total"] == len(requests)

    def test_bucket_is_the_longest_live_member(self):
        state = {"now": 0.0}

        class SpanClockTracer(Tracer):
            def span(self, name, **kwargs):
                if name == "batch_group":
                    state["now"] += 100.0
                return super().span(name, **kwargs)

        engine = BatchEngine(clock=lambda: state["now"], tracer=SpanClockTracer())
        outcomes = engine.execute(
            [
                BatchRequest("(1: 1)", np.ones(8, dtype=np.int32), tag="first"),
                BatchRequest("(1: 2, -1)", np.ones(300, dtype=np.int32), tag="a"),
                BatchRequest(
                    "(1: 2, -1)", np.ones(900, dtype=np.int32), tag="late",
                    deadline=50.0,
                ),
                BatchRequest("(1: 2, -1)", np.ones(10, dtype=np.int32), tag="b"),
            ]
        )
        by_tag = {o.tag: o for o in outcomes}
        assert by_tag["late"].engine == "shed"
        assert by_tag["a"].engine == "batch" and by_tag["b"].engine == "batch"
        (span,) = [
            e for e in engine.tracer.events
            if e.name == "batch_group" and e.args["signature"] == "(1: 2, -1)"
        ]
        m = BatchSolver("(1: 2, -1)").plan_for(300).chunk_size
        assert span.args["batch"] == 2 and span.args["bucket"] == 300
        assert span.args["padding"] == (m - 300) + (m - 10)
        counters = engine.metrics.snapshot()["counters"]
        assert counters["batch.padded_values"] == (m - 8) + (m - 300) + (m - 10)

    def test_empty_rows_and_empty_batch(self):
        solver = BatchSolver("(1: 1)")
        assert solver.solve([]) == []
        out = solver.solve([np.zeros(0, dtype=np.int32), np.arange(4, dtype=np.int32)])
        assert out[0].shape == (0,) and out[0].dtype == np.int32
        assert out[1].tolist() == [0, 1, 3, 6]
        (empty,) = solver.solve([np.zeros(0, dtype=np.int32)])
        assert empty.shape == (0,) and empty.dtype == np.int32

    def test_rejects_rows_that_are_not_1d(self):
        with pytest.raises(ValueError, match="1D rows"):
            BatchSolver("(1: 1)").solve([np.zeros((2, 3))])

    @pytest.mark.parametrize("signature", ["(1: 2, -1)", "(0.04: 1.6, -0.64)"])
    def test_process_backend_runs_ragged_rows_in_the_packed_pass(self, signature, rng):
        recurrence = Recurrence.parse(signature)
        rows = [make_values(recurrence, n) for n in (3, 2500, 40)]
        outputs = BatchSolver(signature, backend="process").solve(rows)
        solver = PLRSolver(signature)
        for row, out in zip(rows, outputs):
            assert out.tobytes() == solver.solve(row).tobytes()


SIGNATURES = ("(1: 1)", "(1: 2, -1)", "(0.2: 0.8)", "(0.5, 0.5: 0.9)")


@st.composite
def request_mixes(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    specs = []
    for i in range(count):
        signature = draw(st.sampled_from(SIGNATURES))
        n = draw(st.integers(min_value=0, max_value=40))
        seed = draw(st.integers(min_value=0, max_value=2**16))
        specs.append((signature, n, seed))
    return specs


@given(request_mixes())
@settings(max_examples=30, deadline=None)
def test_random_mixes_match_per_request(specs):
    """Any queue — empty inputs, n < k tails, mixed dtypes — matches
    the per-request solver through the full planner + engine path."""
    requests = []
    for signature, n, seed in specs:
        recurrence = Recurrence.parse(signature)
        generator = np.random.default_rng(seed)
        if recurrence.is_integer:
            values = generator.integers(-100, 100, size=n).astype(np.int32)
        else:
            values = generator.standard_normal(n).astype(np.float32)
        requests.append(BatchRequest(signature, values))
    outcomes = execute_batch(requests, planner=BatchPlanner(max_batch=3))
    assert len(outcomes) == len(specs)
    for outcome, request in zip(outcomes, requests):
        assert outcome.ok, outcome.error
        if request.n == 0:
            assert outcome.output.size == 0
            assert outcome.output.dtype == request.dtype
            continue
        expected = per_request(request.signature, request.values)
        assert outcome.output.dtype == expected.dtype
        if np.issubdtype(expected.dtype, np.integer):
            assert np.array_equal(outcome.output, expected)
        else:
            assert_valid(outcome.output, expected)


class TestDeadlines:
    """Per-request deadlines: cooperative shedding at every checkpoint,
    typed DeadlineExceeded, and index integrity when a queue shrinks."""

    def _clock(self, start=0.0):
        state = {"now": start}
        return state, (lambda: state["now"])

    def test_expired_in_queue_is_shed_typed(self):
        from repro.core.errors import DeadlineExceeded

        state, clock = self._clock(10.0)
        engine = BatchEngine(clock=clock)
        request = BatchRequest(
            "(1: 1)", np.arange(8, dtype=np.int32), deadline=5.0
        )
        [outcome] = engine.execute([request])
        assert not outcome.ok
        assert isinstance(outcome.error, DeadlineExceeded)
        assert outcome.engine == "shed"
        assert not outcome.isolated
        counters = engine.metrics.snapshot()["counters"]
        assert counters["batch.shed_expired"] == 1
        # No group was ever formed for it.
        assert counters.get("batch.groups", 0) == 0

    def test_live_deadline_solves_normally(self):
        state, clock = self._clock(0.0)
        engine = BatchEngine(clock=clock)
        x = np.arange(1, 9, dtype=np.int32)
        [outcome] = engine.execute(
            [BatchRequest("(1: 1)", x, deadline=1e9)]
        )
        assert outcome.ok and outcome.engine == "batch"
        np.testing.assert_array_equal(outcome.output, np.cumsum(x))

    def test_shed_requests_do_not_corrupt_batch_indices(self):
        """An expired request filtered out before planning must not
        shift its batch-mates' outcome slots (the planner numbers the
        filtered list; the engine maps back to submission order)."""
        state, clock = self._clock(10.0)
        engine = BatchEngine(clock=clock)
        a = np.arange(1, 9, dtype=np.int32)
        b = np.arange(1, 17, dtype=np.int32)
        requests = [
            BatchRequest("(1: 1)", a, tag="live-a", deadline=None),
            BatchRequest("(1: 1)", a * 2, tag="dead", deadline=1.0),
            BatchRequest("(1: 2, -1)", b, tag="live-b", deadline=99.0),
        ]
        outcomes = engine.execute(requests)
        assert [o.tag for o in outcomes] == ["live-a", "dead", "live-b"]
        assert outcomes[0].ok
        np.testing.assert_array_equal(outcomes[0].output, np.cumsum(a))
        assert not outcomes[1].ok and outcomes[1].engine == "shed"
        assert outcomes[2].ok
        np.testing.assert_array_equal(
            outcomes[2].output, per_request("(1: 2, -1)", b)
        )

    def test_deadline_passing_mid_solve_sheds_after_group(self):
        """A deadline that expires while the group is solving yields a
        typed error, never the late result.  The tracer span hook is
        the deterministic way to advance time 'during' the solve."""
        from repro.core.errors import DeadlineExceeded
        from repro.obs.tracer import Tracer

        state, clock = self._clock(0.0)

        class SpanClockTracer(Tracer):
            def span(self, name, **kwargs):
                if name == "batch_group":
                    state["now"] += 100.0
                return super().span(name, **kwargs)

        engine = BatchEngine(clock=clock, tracer=SpanClockTracer())
        x = np.arange(1, 9, dtype=np.int32)
        outcomes = engine.execute(
            [
                BatchRequest("(1: 1)", x, tag="missed", deadline=50.0),
                BatchRequest("(1: 1)", x, tag="patient", deadline=1e9),
            ]
        )
        missed = next(o for o in outcomes if o.tag == "missed")
        patient = next(o for o in outcomes if o.tag == "patient")
        assert not missed.ok
        assert isinstance(missed.error, DeadlineExceeded)
        assert "while its group was solving" in str(missed.error)
        assert patient.ok
        counters = engine.metrics.snapshot()["counters"]
        assert counters["batch.deadline_missed"] == 1

    def test_expired_awaiting_group_shed_before_solving(self):
        """With two groups, time advancing during the first group's
        solve must shed the second group's expired member before any
        of its work runs."""
        from repro.obs.tracer import Tracer

        state, clock = self._clock(0.0)

        class SpanClockTracer(Tracer):
            def span(self, name, **kwargs):
                if name == "batch_group":
                    state["now"] += 100.0
                return super().span(name, **kwargs)

        engine = BatchEngine(clock=clock, tracer=SpanClockTracer())
        x = np.arange(1, 9, dtype=np.int32)
        outcomes = engine.execute(
            [
                BatchRequest("(1: 1)", x, tag="first-group", deadline=None),
                BatchRequest("(1: 2, -1)", x, tag="too-late", deadline=50.0),
            ]
        )
        late = next(o for o in outcomes if o.tag == "too-late")
        assert not late.ok and late.engine == "shed"
        assert "awaiting its group" in str(late.error)

    def test_isolation_respects_remaining_budget(self):
        """A request that needs isolation carries its remaining budget
        into the resilience policy instead of the engine default."""
        captured = {}
        import repro.batch.engine as engine_module

        original = engine_module.solve_request

        def spy(recurrence, values, **kwargs):
            captured["policy"] = kwargs["policy"]
            return original(recurrence, values, **kwargs)

        state, clock = self._clock(0.0)
        engine = BatchEngine(clock=clock)
        engine_module.solve_request, saved = spy, original
        try:
            # NaN input forces isolation; deadline 7.5s from "now".
            values = np.array([1.0, np.nan, 3.0], dtype=np.float32)
            [outcome] = engine.execute(
                [BatchRequest("(1: 1)", values, deadline=7.5)]
            )
        finally:
            engine_module.solve_request = saved
        assert outcome.ok  # serial fallback handles non-finite input
        assert captured["policy"].deadline_s == pytest.approx(7.5, abs=0.5)

    def test_deadline_coerced_to_float(self):
        request = BatchRequest(
            "(1: 1)", np.arange(4, dtype=np.int32), deadline=7
        )
        assert isinstance(request.deadline, float)
