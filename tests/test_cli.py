"""The plr command-line tool."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestCompileCommand:
    def test_cuda_to_stdout(self, capsys):
        assert main(["compile", "(1: 2, -1)"]) == 0
        out = capsys.readouterr().out
        assert "plr_kernel" in out
        assert "__global__" in out

    def test_write_to_file(self, tmp_path, capsys):
        path = tmp_path / "kernel.cu"
        assert main(["compile", "(1: 1)", "-o", str(path)]) == 0
        assert "plr_kernel" in path.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_python_backend(self, capsys):
        assert main(["compile", "(1: 1)", "--backend", "python"]) == 0
        assert "def compute" in capsys.readouterr().out

    def test_bad_signature_is_clean_error(self, capsys):
        assert main(["compile", "(1: )"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_solver_backend(self, capsys):
        assert main(["run", "(1: 1)", "-n", "50000"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_c_backend(self, capsys):
        assert main(["run", "(1: 2, -1)", "-n", "30000", "--backend", "c"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_python_backend(self, capsys):
        assert main(["run", "(0.2: 0.8)", "-n", "20000", "--backend", "python"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["solver", "native", "auto"])
    def test_times_a_warm_solve(self, backend, capsys, monkeypatch):
        """The first solve pays table builds and the kernel load; the
        timer starts after it and stops after the second."""
        import time
        import types

        import repro.cli as cli
        from repro.plr.solver import PLRSolver

        events = []
        solve = PLRSolver.solve

        def counted(self, *args, **kwargs):
            events.append("solve")
            return solve(self, *args, **kwargs)

        def clock():
            events.append("clock")
            return time.perf_counter()

        monkeypatch.setattr(PLRSolver, "solve", counted)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=clock))
        assert main(["run", "(0.2: 0.8)", "-n", "5000", "--backend", backend]) == 0
        assert events == ["solve", "clock", "solve", "clock"]
        assert "OK" in capsys.readouterr().out


class TestInfoCommand:
    def test_reports_plan_and_decisions(self, capsys):
        assert main(["info", "(1: 2, -1)"]) == 0
        out = capsys.readouterr().out
        assert "higher_order_prefix_sum" in out
        assert "buffered_array" in out
        assert "m=" in out

    def test_filter_shows_cutoff(self, capsys):
        assert main(["info", "(0.2: 0.8)"]) == 0
        out = capsys.readouterr().out
        assert "truncated" in out
        assert "cutoff=" in out


class TestFactorsCommand:
    def test_paper_example(self, capsys):
        assert main(["factors", "(1: 2, -1)", "-m", "8"]) == 0
        out = capsys.readouterr().out
        assert "2, 3, 4, 5, 6, 7, 8, 9" in out
        assert "-1, -2, -3, -4, -5, -6, -7, -8" in out


class TestFiguresAndTables:
    def test_single_figure(self, capsys):
        assert main(["figures", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Prefix-sum throughput" in out
        assert "memcpy" in out

    def test_fig10(self, capsys):
        assert main(["figures", "fig10"]) == 0
        assert "optimizations" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "(1: 1)"])
        assert args.n == 1 << 20
        assert args.backend == "solver"

    def test_cuda_not_runnable(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "(1: 1)", "--backend", "cuda"])


class TestCalibrationCommand:
    def test_all_anchors_pass(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "memcpy plateau" in out
        assert "NO" not in out


class TestExportCommand:
    def test_writes_bundle(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "data")]) == 0
        out = capsys.readouterr().out
        assert "manifest.json" in out
        assert (tmp_path / "data" / "fig1.csv").exists()
        assert (tmp_path / "data" / "table3_l2.csv").exists()


class TestSimulateCommand:
    def test_healthy_run(self, capsys):
        assert main(["simulate", "(1: 2, -1)", "-n", "800"]) == 0
        out = capsys.readouterr().out
        assert "look-back" in out
        assert "OK" in out

    def test_fault_deadlock_reported(self, capsys):
        assert main(["simulate", "(1: 1)", "--fault", "never_publish"]) == 1
        assert "deadlock" in capsys.readouterr().out

    def test_fault_fence_corruption_reported(self, capsys):
        code = main(["simulate", "(1: 1)", "-n", "900", "--fault", "flag_before_data"])
        out = capsys.readouterr().out
        # The race fires under essentially every schedule at this size.
        assert code == 1
        assert "MISMATCH" in out

    def test_generalized_fault_kind_accepted(self, capsys):
        assert main(["simulate", "(1: 1)", "-n", "400", "--fault", "abort_restart"]) == 0
        out = capsys.readouterr().out
        assert "restarts" in out
        assert "OK" in out

    def test_unknown_fault_is_clean_error(self, capsys):
        assert main(["simulate", "(1: 1)", "--fault", "meteor_strike"]) == 2
        assert "error:" in capsys.readouterr().err


class TestChaosCommand:
    def test_small_sweep_holds_invariant(self, capsys):
        assert main(["chaos", "--cases", "25", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "25 cases" in out
        assert "invariant held" in out

    def test_recurrence_filter(self, capsys):
        assert main(
            ["chaos", "--cases", "10", "--recurrence", "prefix_sum"]
        ) == 0
        assert "10 cases" in capsys.readouterr().out

    def test_unknown_recurrence_is_clean_error(self, capsys):
        assert main(["chaos", "--cases", "1", "--recurrence", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBatchCommand:
    def _write_queue(self, tmp_path, lines):
        path = tmp_path / "queue.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_mixed_queue_smoke(self, tmp_path, capsys):
        import json

        queue = self._write_queue(
            tmp_path,
            [
                '{"id": "sum", "signature": "(1: 1)", "values": [1, 2, 3, 4]}',
                '{"id": "filt", "signature": "(0.2: 0.8)", "values": [1.0, 0.0]}',
                '{"id": "empty", "signature": "(1: 1)", "values": []}',
            ],
        )
        out_path = tmp_path / "results.jsonl"
        assert main(["batch", queue, "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "3 requests" in out
        results = {
            record["id"]: record
            for record in map(json.loads, out_path.read_text().splitlines())
        }
        assert results["sum"]["output"] == [1, 3, 6, 10]
        assert results["sum"]["engine"] == "batch"
        assert results["empty"]["output"] == []
        assert results["empty"]["engine"] == "empty"
        np.testing.assert_allclose(
            results["filt"]["output"], [0.2, 0.16], rtol=1e-5
        )

    def test_isolated_request_reported(self, tmp_path, capsys):
        queue = self._write_queue(
            tmp_path,
            [
                '{"id": "ok", "signature": "(1: 1)", "values": [1, 1]}',
                '{"id": "lossy", "signature": "(1: 0.5)", "values": [1, 2], '
                '"dtype": "int32"}',
            ],
        )
        assert main(["batch", queue]) == 0
        out = capsys.readouterr().out
        assert "1 isolated" in out
        assert "float64" in out

    def test_unreadable_input_is_one_line_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["batch", missing]) == 2
        captured = capsys.readouterr()
        err_lines = [line for line in captured.err.splitlines() if line]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_malformed_signature_names_the_line(self, tmp_path, capsys):
        queue = self._write_queue(
            tmp_path, ['{"id": "x", "signature": "(1: junk", "values": [1]}']
        )
        assert main(["batch", queue]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and ":1:" in err
        assert "Traceback" not in err

    def test_invalid_json_names_the_line(self, tmp_path, capsys):
        queue = self._write_queue(
            tmp_path,
            ['{"id": "a", "signature": "(1: 1)", "values": [1]}', "{oops"],
        )
        assert main(["batch", queue]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err and "invalid JSON" in err

    def test_missing_fields_rejected(self, tmp_path, capsys):
        queue = self._write_queue(tmp_path, ['{"id": "a", "values": [1]}'])
        assert main(["batch", queue]) == 2
        assert "missing signature" in capsys.readouterr().err

    def test_failed_request_sets_exit_one(self, tmp_path, capsys):
        # A request the resilience chain cannot rescue (rho > 1 in
        # float32 with every rescue lever still on ends at serial and
        # succeeds, so use a NaN input with serial fallback: still ok).
        # The reliable failure: values that are not numbers at all.
        queue = self._write_queue(
            tmp_path,
            ['{"id": "bad", "signature": "(1: 1)", "values": ["zzz"]}'],
        )
        assert main(["batch", queue]) == 2
        assert "bad request" in capsys.readouterr().err


class TestBench:
    def test_writes_schema_complete_records(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(
            [
                "bench",
                "(1: 1)",
                "-n",
                "4096",
                "--repeat",
                "1",
                "--workers",
                "2",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed and "speedup" in printed
        import json

        payload = json.loads(out.read_text())
        assert payload["workers"] == 2 and payload["repeat"] == 1
        backends = [r["backend"] for r in payload["results"]]
        assert backends[:3] == ["serial", "vectorized", "process"]
        # The native row rides along wherever a C compiler exists; on
        # machines without one the payload records why it was skipped.
        assert backends[3:] == ["native"] or "native_skipped" in payload
        assert payload["fingerprint"]["cpu_count"] >= 1
        for record in payload["results"]:
            assert set(record) == {
                "op", "n", "dtype", "backend", "workers", "wall_s", "speedup",
            }
            assert record["n"] == 4096
            # Effective pool size per row: in-process rows pin 1, the
            # process row records what actually ran (clamped to chunks).
            if record["backend"] == "process":
                assert 1 <= record["workers"] <= 2
            else:
                assert record["workers"] == 1
            assert record["wall_s"] > 0 and record["speedup"] > 0

    def test_bad_signature_is_clean_error(self, tmp_path, capsys):
        rc = main(["bench", "(1:", "-n", "64", "-o", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
